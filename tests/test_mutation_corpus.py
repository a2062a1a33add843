"""Mutation corpus: no damaged input ends in a traceback.

Each example takes a valid input of one kind (an instance or model JSON, a
trace CSV, a sweep cell JSON, an argv), damages it in one place and runs it
through ``cli.main``.  Whatever the damage, ``main`` must return exit 0 or 2
(1 only from ``audit``, with its verdict JSON) and print one JSON object on
stdout; no exception may escape.  A traceback exits 1, the code ``audit``
uses for "audit failures present", so a crash could pass for a verdict.

The examples run under the active hypothesis profile (tier1 by default;
``--hypothesis-profile=ci`` runs ten times as many).
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, strategies as st

from ora_bob import cli

#: What a JSON value may be replaced with.
JSON_VALUES = (None, True, False, 2**64, 1e308, -1e308, 1e300, -1e300, float("nan"), "x",
               [], {})
#: What a trace cell, a trace header value or an argv token may become.
TOKENS = ("", "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "1e308", "-1e308",
          str(2**64), "abc", "1,2", "null", "[]", "{}")
#: Further argv tokens: every command and a sample of options and choices,
#: none of which asks for help (``-h`` exits 0 through SystemExit by design).
ARGV_TOKENS = TOKENS + ("run", "sweep", "oracle", "audit", "gen", "--T", "--eta", "--delta",
                        "--seeds", "--jobs", "--pairs", "--which", "--instance", "--bogus",
                        "--aggregate-only", "--benchmark", "lp", "all", "5:3", "1,,2")


def check_main(argv: list[str]) -> int:
    """Run ``cli.main(argv)`` and check its exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    payload = json.loads(stdout.getvalue())
    assert isinstance(payload, dict)
    if code == 1:
        assert "audit" in argv and payload["ok"] is False
    else:
        assert code in (0, 2)
    if code == 2:
        assert set(payload) == {"error"}
    return code


@contextlib.contextmanager
def scratch_dir(base):
    """A fresh empty directory under ``base``, the working directory while
    it is open and removed after."""
    path, cwd = tempfile.mkdtemp(dir=base), os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path)


def json_paths(doc, prefix=()):
    """The path of every value in the JSON document ``doc``, itself included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(value, prefix + (key,))


def mutate_json(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``,
    or deleted when ``value`` is the string "<delete>" and ``path`` names a
    member or an element."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


json_damage = st.sampled_from(JSON_VALUES + ("<delete>",))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A model, an instance, a trace of the model and a two-cell sweep of it."""
    base = tmp_path_factory.mktemp("corpus")
    model, instance = str(base / "model.json"), str(base / "instance.json")
    for generator, path, params in (
        ("random_model", model, ("S=3", "K=3", "T=12")),
        ("random", instance, ("T=6", "K=3")),
    ):
        argv = ["gen", "--generator", generator, "--out", path]
        assert cli.main(argv + [arg for p in params for arg in ("--param", p)]) == 0
    assert cli.main(["run", "--instance", model, "--T", "12", "--seeds", "3",
                     "--out", str(base), "--name", "trace"]) == 0
    sweep = ["sweep", "--instance", model, "--T", "8,12", "--seeds", "0",
             "--out", str(base / "sweep"), "--name", "sw"]
    assert cli.main(sweep) == 0
    with open(model) as fh, open(instance) as gh:
        docs = {"model": json.load(fh), "instance": json.load(gh)}
    return {"base": str(base), "docs": docs, "sweep": sweep, "trace": str(base / "trace_3.csv")}


@given(data=st.data())
def test_damaged_instance_or_model_file(corpus, data):
    kind = data.draw(st.sampled_from(("model", "instance")))
    doc = corpus["docs"][kind]
    damaged = mutate_json(doc, data.draw(st.sampled_from(list(json_paths(doc)))),
                          data.draw(json_damage))
    with scratch_dir(corpus["base"]) as cwd:
        with open("source.json", "w") as fh:
            json.dump(damaged, fh)
        horizon = ("--T", "12") if kind == "model" else ()
        argv = ["run", "--instance", "source.json", *horizon, "--seeds", "0", "--out", cwd,
                "--benchmark", "lp"]
        if check_main(argv) == 0:
            check_main(["audit", os.path.join(cwd, "run_0.csv"), "--pairs", "5"])


@given(data=st.data())
def test_damaged_trace(corpus, data):
    """A damaged trace audits without a traceback; one whose ``# `` header
    line is changed or deleted is refused, exit 2."""
    with open(corpus["trace"]) as fh:
        lines = fh.read().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    token = data.draw(st.sampled_from(TOKENS + ("<delete>",)))
    line = lines[i]
    if token == "<delete>":
        del lines[i]
    elif lines[i].startswith("# "):
        key, _, _ = lines[i].partition("=")
        lines[i] = f"{key}={token}"
    else:
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = token
        lines[i] = ",".join(cells)
    with scratch_dir(corpus["base"]):
        with open("trace.csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = check_main(["audit", "trace.csv", "--pairs", "5"])
    if line.startswith("# ") and (token == "<delete>" or lines[i] != line):
        assert code == 2


@given(data=st.data())
def test_damaged_sweep_cell(corpus, data):
    sweep = list(corpus["sweep"])
    out = sweep[sweep.index("--out") + 1]
    cell = data.draw(st.sampled_from(("sw_T8_0.json", "sw_T12_0.json")))
    with open(os.path.join(out, cell)) as fh:
        doc = json.load(fh)
    damaged = mutate_json(doc, data.draw(st.sampled_from(list(json_paths(doc)))),
                          data.draw(json_damage))
    with scratch_dir(corpus["base"]) as cwd:
        for name in ("sw_T8_0.json", "sw_T12_0.json"):
            shutil.copy(os.path.join(out, name), cwd)
        with open(cell, "w") as fh:
            json.dump(damaged, fh)
        sweep[sweep.index("--out") + 1] = cwd
        check_main(sweep + ["--aggregate-only"])


@given(data=st.data())
def test_damaged_argv(corpus, data):
    bases = (
        ["run", "--generator", "pacing", "--T", "12", "--seeds", "0", "--out", "out"],
        ["sweep", "--generator", "pacing", "--T", "8,12", "--seeds", "0", "--out", "out"],
        ["oracle", "--generator", "random", "--param", "T=6", "--which", "all", "--T", "6"],
        ["audit", corpus["trace"], "--pairs", "5", "--out", "audit.json"],
        ["gen", "--generator", "pacing", "--param", "T=30", "--out", "model.json"],
    )
    argv = list(data.draw(st.sampled_from(bases)))
    op = data.draw(st.sampled_from(("replace", "delete", "insert")))
    i = data.draw(st.integers(0, len(argv) - (op != "insert")))
    if op == "delete":
        del argv[i]
    else:
        argv[i : i + (op == "replace")] = [data.draw(st.sampled_from(ARGV_TOKENS))]
    with scratch_dir(corpus["base"]):
        check_main(argv)
