"""Fuzz the spec and manifest loaders with malformed input.

Every malformed chaos ``rules`` list, sweep manifest or reproducer list
must be rejected with a typed error (:class:`SpecError`,
:class:`ComponentError` or :class:`SweepError`) whose ``field`` names
the offending key, and ``repro run --replay`` must exit 2 on it.  A
bare ``KeyError``, ``TypeError`` or ``AttributeError`` never escapes.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.faults import CHAOS_POINTS
from repro.stdlib import (ComponentError, ScenarioSpec, SpecError,
                          SweepError, replay_manifest)

TYPED = (SpecError, ComponentError, SweepError)

SPEC = {"name": "fuzz", "mode": "host", "host": "chaos+xs@1",
        "guest": "daytime@1", "traffic": "boot-storm@1",
        "faults": "chaos@1", "guests": 2}
MANIFEST = {"version": 1, "spec": SPEC, "seeds": [0],
            "manifest_digest": "0" * 64}
RULE_KEYS = ("point", "probability", "at", "max_fires", "kind",
             "delay_ms")

#: JSON values of every shape.
junk = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)

rules = st.fixed_dictionaries({
    "point": st.sampled_from(CHAOS_POINTS),
    "at": st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                   max_size=2)})

bad_rule = st.one_of(
    rules.map(lambda rule: {"at": rule["at"]}),                # no point
    rules.map(lambda rule: dict(rule, at=rule["at"][0])),      # int at
    st.builds(lambda rule, n: dict(rule, at=[n]), rules,
              st.integers(max_value=0)),                       # at <= 0
    st.builds(lambda rule, key: dict(rule, **{key: 1}), rules,
              st.text(min_size=1, max_size=8).filter(
                  lambda key: key not in RULE_KEYS)),          # unknown key
    st.builds(lambda rule, key, value: dict(rule, **{key: value}), rules,
              st.sampled_from(("probability", "max_fires", "delay_ms")),
              st.text(max_size=4) | st.just(-1)),              # ill-typed
    junk.filter(lambda value: not isinstance(value, dict)),    # non-mapping
)

#: A rules list with one malformed entry among good ones, or a value
#: that is not a list at all (``None`` means "draw from the seed").
bad_rules = st.one_of(
    st.builds(lambda good, bad, at: good[:at] + [bad] + good[at:],
              st.lists(rules, max_size=2), bad_rule,
              st.integers(min_value=0, max_value=2)),
    junk.filter(lambda value: value is not None
                and not isinstance(value, list)),
)


def _valid_seeds(value):
    return (isinstance(value, list) and bool(value)
            and all(isinstance(seed, int) and not isinstance(seed, bool)
                    for seed in value)
            and len(set(value)) == len(value))


#: Per key, values a replay must refuse.
ill_typed = {
    "version": junk.filter(lambda value: type(value) is not int
                           or value != 1),
    "spec": junk.filter(lambda value: value != SPEC),
    "seeds": junk.filter(lambda value: not _valid_seeds(value)),
    "manifest_digest": junk.filter(lambda value: not isinstance(value,
                                                                str)),
}

bad_manifest = st.one_of(
    junk.filter(lambda value: not isinstance(value, dict)),
    st.sampled_from(sorted(MANIFEST)).map(
        lambda key: {k: v for k, v in MANIFEST.items() if k != key}),
    st.sampled_from(sorted(ill_typed)).flatmap(
        lambda key: ill_typed[key].map(
            lambda value: dict(MANIFEST, **{key: value}))),
    bad_rules.map(lambda value: dict(MANIFEST, spec=dict(
        SPEC, faults={"ref": "chaos@1", "rules": value}))),
)


@given(bad_rules)
@settings(max_examples=200, deadline=None)
def test_malformed_chaos_rules_raise_typed_errors(value):
    payload = dict(SPEC, faults={"ref": "chaos@1", "rules": value})
    with pytest.raises(TYPED) as err:
        ScenarioSpec.from_dict(payload)
    assert err.value.field == "faults"


@given(bad_manifest)
@settings(max_examples=200, deadline=None)
def test_malformed_manifests_raise_typed_errors(manifest):
    with pytest.raises(TYPED) as err:
        replay_manifest(manifest)
    assert isinstance(err.value.field, str) and err.value.field


@pytest.fixture(scope="module")
def replay_file(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "manifests.json"


@given(document=bad_manifest | st.lists(bad_manifest, max_size=3))
@settings(max_examples=60, deadline=None)
def test_cli_replay_exits_2_on_malformed_documents(replay_file, document):
    replay_file.write_text(json.dumps(document))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--replay", str(replay_file)]) == 2
    assert "repro run: error:" in stderr.getvalue()
