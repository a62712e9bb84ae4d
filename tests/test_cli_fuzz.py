"""Generated configs for all six experiments against the CLI contract:
every input runs (exit 0) or exits 2 or 3 with one stderr line, and none
prints a traceback.

Runs in process through `cli.main`. Values mix plausible parameters with
JSON null, bools, lists, objects, strings, NaN, infinities, 1e400,
negatives and unknown keys. Sizes stay small so that no example asks for
much work: n and N at most 28, 1-3 trials (exactly 100, the game floor,
or 1-3 below it, for covert and dcqke), and for covert at most 64
time-bin slots, so the weak generator's seed-search table stays small.
dcqke needs at least 162 slots for one session, so it gets up to 512
slots and only the count warden: the seed-search table at that size
takes seconds to build.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdeny import cli  # noqa: E402

_BIG = "__1e400__"  # written into the JSON text as the literal 1e400

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "seed", "x"]), st.integers(-3, 3), max_size=2),
    st.sampled_from(["", "abc", "14", "0.5", "nan", "strong", "weak", "count"]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), _BIG]),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-9),
)


_RARELY = st.sampled_from([False] * 5 + [True])


def _or_junk(strategy):
    """`strategy`, or now and then a junk value, so that most configs get
    past parsing and some of them run."""
    return _RARELY.flatmap(lambda junk: _JUNK if junk else strategy)


_PROBABILITY = _or_junk(st.floats(0, 1))
_DELTA = _or_junk(st.floats(0, 3))
_BLOCKS = _or_junk(st.sampled_from([7, 14, 21, 28]) | st.integers(-1, 28))
_PRNG = _or_junk(st.fixed_dictionaries(
    {"kind": st.sampled_from(["strong", "weak"])},
    optional={"seed": st.none() | st.integers(0, 70000) | st.sampled_from(["ff", "zz"])},
))


def _covert(n_slots: int, wardens: list[str]):
    return {
        "n": _BLOCKS, "delta": _DELTA, "p_dark": _PROBABILITY, "p_signal": _PROBABILITY,
        "n_slots": _or_junk(st.integers(1, n_slots)),
        "n_used": _or_junk(st.integers(0, n_slots)), "prng": _PRNG,
        "warden": _or_junk(st.sampled_from(wardens)),
    }


def _params(experiment: str, code_files: list[str]):
    keys = {
        "bb84": {
            "n": _BLOCKS, "delta": _DELTA, "flip_probability": _PROBABILITY,
            "error_threshold": _PROBABILITY,
            "c1_file": _or_junk(st.sampled_from(code_files)),
            "c2_file": _or_junk(st.sampled_from(code_files)),
        },
        "attack-deny": {k: _or_junk(st.integers(0, 28)) for k in ("N", "eta", "flips")},
        "ue": {"n": _or_junk(st.integers(1, 28)), "s": _or_junk(st.integers(1, 28))},
        "covert": _covert(64, ["count", "seed-search"]),
        "dcqke": _covert(512, ["count"]),
        "distill": {"theta": _or_junk(st.floats(-0.5, 2.0))},
    }[experiment]
    bogus = {"bogus": st.integers(0, 1)}
    return _or_junk(_RARELY.flatmap(
        lambda unknown: st.fixed_dictionaries(bogus if unknown else {}, optional=keys)
    ))


def _trials(experiment: str):
    if experiment in ("covert", "dcqke"):
        return st.sampled_from([100, 100, 1, 3])
    return st.integers(1, 3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "hamming.txt").write_text("7 4\n1110000\n1001100\n0101010\n1101001\n")
    (path / "repetition.txt").write_text("7 1\n1111111\n")
    return path


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_any_config_runs_or_exits_with_one_line(workdir, experiment, data):
    code_files = [str(workdir / name) for name in ("hamming.txt", "repetition.txt", "none.txt")]
    params = data.draw(_params(experiment, code_files), label="params")
    config = {"experiment": experiment, "params": params}
    argv = [experiment, "--config", str(workdir / "cfg.json")]
    if data.draw(st.booleans(), label="trials in config"):
        config["trials"] = data.draw(_or_junk(_trials(experiment)), label="trials")
    else:
        argv += ["--trials", str(data.draw(_trials(experiment), label="--trials"))]
    (workdir / "cfg.json").write_text(json.dumps(config).replace(f'"{_BIG}"', "1e400"))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().startswith("experiment,")
    else:
        prefix = "config error:" if code == 2 else "experiment abort:"
        assert len(lines) == 1 and lines[0].startswith(prefix), err.getvalue()
