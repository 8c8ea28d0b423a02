"""Property tests: mixed-type config values are either accepted or refused
with ValidationError, and `hpmsim run` answers them with exit codes 0-3."""

import json
import math

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from hpmsim.cli import main
from hpmsim.errors import ValidationError
from hpmsim.pipeline import RunConfig

STD1 = {
    "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5],
    "F1_triplets": [[0, 0, -1.0]],
    "F2_triplets": [[0, 0, 0.2]],
}

scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)
junk = st.one_of(scalar, st.lists(scalar, max_size=3),
                 st.dictionaries(st.text(max_size=2), scalar, max_size=2))
triplets = st.one_of(junk, st.lists(st.lists(scalar, max_size=4), max_size=3))


def _is_config(raw) -> bool:
    try:
        cfg = RunConfig.from_dict(raw)
    except ValidationError:
        return False
    assert isinstance(cfg, RunConfig)
    return True


@settings(max_examples=300, deadline=None)
@given(n=junk, T=junk, epsilon=junk, u_in=st.one_of(junk, st.lists(scalar, max_size=3)),
       F1=triplets, F2=triplets, drop=st.sets(st.sampled_from(sorted(STD1))))
def test_from_dict_accepts_or_raises_validation_error(n, T, epsilon, u_in, F1, F2, drop):
    raw = {"n": n, "T": T, "epsilon": epsilon, "u_in": u_in,
           "F1_triplets": F1, "F2_triplets": F2}
    for key in drop:
        del raw[key]
    _is_config(raw)


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# every key but u_in and the triplet lists: the rule each value must meet
RULES = {
    **dict.fromkeys(("n", "m", "p", "dense_cap", "dimension_cap"),
                    lambda x: _integer(x) and x >= 1),
    "T": lambda x: _real(x) and x >= 0,
    **dict.fromkeys(("epsilon", "g", "eta", "zeta", "tol"), lambda x: _real(x) and x > 0),
    **dict.fromkeys(("c", "k", "seed"), lambda x: _integer(x) and x >= 0),
    "solver": lambda x: x in ("forward", "iterative"),
    **dict.fromkeys(("force", "assume_valid"), lambda x: isinstance(x, bool)),
    **dict.fromkeys(("F1_path", "F2_path", "emit_blocks"), lambda x: isinstance(x, str)),
}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(["u_in", "F1_triplets", "F2_triplets", *RULES]),
       st.one_of(junk, st.sampled_from(["forward", "iterative", "Forward", "gmres"])))
def test_from_dict_checks_each_key_alone(key, value):
    """One bad value among valid ones is refused whenever its key's rule says so."""
    accepted = _is_config({**STD1, key: value})
    if key in RULES:
        # None leaves a key whose default is None to the run
        optional = RunConfig.__dataclass_fields__[key].default is None
        assert accepted == (RULES[key](value) or (value is None and optional))


# the CLI runs the whole pipeline on accepted configs: each example starts
# from a valid std1-like config with at most two keys replaced by junk, and
# keeps accepted runs short (T at most 2, or far past the grid step cap)
cli_real = st.one_of(st.floats(-3.0, 3.0), st.integers(-2, 2), st.text(max_size=2),
                     st.none(), st.just(math.nan))
cli_triplets = st.one_of(
    cli_real, st.lists(st.lists(st.one_of(st.integers(0, 1), cli_real),
                                min_size=2, max_size=4), max_size=2))


def _scalar_triplets(lo: float, hi: float):
    entry = st.floats(lo, hi).map(lambda v: [0, 0, v])
    return st.lists(entry, min_size=1, max_size=2)


CLI_VALID = {
    "n": st.just(1),
    "T": st.floats(0.0, 2.0),
    "epsilon": st.floats(1e-3, 5e-2),
    "u_in": st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=1),
    "F1_triplets": _scalar_triplets(-3.0, -0.3),
    "F2_triplets": _scalar_triplets(-0.3, 0.3),
}
CLI_JUNK = {
    "n": st.one_of(st.integers(-1, 2), cli_real),
    "T": st.one_of(st.floats(min_value=1e7, allow_infinity=True), st.floats(max_value=0.0),
                   st.just(math.nan), st.text(max_size=2), st.none(), st.booleans()),
    "epsilon": cli_real,
    "u_in": st.one_of(st.lists(cli_real, max_size=2), cli_real),
    "F1_triplets": cli_triplets,
    "F2_triplets": cli_triplets,
}


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_run_exit_codes_stay_in_range(tmp_path, data):
    junk_keys = data.draw(st.sets(st.sampled_from(sorted(CLI_VALID)), max_size=2))
    raw = {key: data.draw(CLI_JUNK[key] if key in junk_keys else CLI_VALID[key], label=key)
           for key in sorted(CLI_VALID)}
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(raw))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) in (0, 1, 2, 3)
