"""Mutation fuzz of the README quick-start configuration.

Each mutant changes one key the decoder reads: dropped, retyped, out of
range, or joined by an unknown sibling. The key list is recorded from the
decoder itself, so a key added to the schema is fuzzed without editing this
file. Every mutant must decode, or fail with a ConfigError that starts with
the mutated key's path (a rule over several keys may name the section), and
`netprox check` must exit 2 on it.
"""

import copy
import functools
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from netprox import bench
from netprox.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

_WRONG_TYPE = {
    int: ["7", 1.5, True, None, [1]],
    float: ["7", True, None, {}],
    str: [7, None, ["star"]],
    list: ["dpga", 0, None, {}],
    dict: [[], "x", None, 3],
    bool: [1, "yes", None],
}
_OUT_OF_RANGE = {
    int: [-1, 0, 1, 3, 10**400],
    float: [-1.0, 0.0, 1.5, 10**400],
    str: ["", "no-such-value"],
    list: [[], [-1], ["x", "x"]],
    dict: [{}],
    bool: [],
}


@functools.cache
def quick_start() -> dict:
    return json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))


@functools.cache
def read_keys() -> tuple:
    """(section, key, kind, default) for every key validate_config reads on
    the quick-start config, in reading order; section "config" is the top."""
    seen = {}
    call = bench._Section.__call__

    def recording(self, key, kind, default=bench._REQUIRED, *args, **kwargs):
        seen.setdefault((self.path, key), (self.path, key, kind, default))
        return call(self, key, kind, default, *args, **kwargs)

    bench._Section.__call__ = recording
    try:
        bench.validate_config(quick_start())
    finally:
        bench._Section.__call__ = call
    return tuple(seen.values())


def section_of(cfg: dict, section: str) -> dict:
    """The JSON object a section reads, made explicit from the decoder's
    default when the config leaves it out."""
    if section == "config":
        return cfg
    if section not in cfg:
        default = next(d for s, k, _, d in read_keys() if s == "config" and k == section)
        cfg[section] = copy.deepcopy(default)
    return cfg[section]


@st.composite
def mutants(draw):
    """(config, error prefixes it may fail with, whether it must fail)."""
    cfg = copy.deepcopy(quick_start())
    section, key, kind, _ = draw(st.sampled_from(read_keys()))
    obj = section_of(cfg, section)
    how = draw(st.sampled_from(["drop", "retype", "range", "unknown"]))
    if how == "unknown":
        obj["zz_unknown"] = 1
        return cfg, (f"{section}.zz_unknown: unknown key",), True
    if how == "drop":
        obj.pop(key, None)
    else:
        values = (_WRONG_TYPE if how == "retype" else _OUT_OF_RANGE).get(kind)
        if values:  # a bool has no range, a key read as any object no wrong type
            obj[key] = draw(st.sampled_from(values))
    # the key's own path, its section for a rule over several keys, and,
    # when the key is a section, the keys inside it
    allowed = [f"{section}.{key}:"]
    if section != "config":
        allowed.append(f"{section}:")
    if kind is dict:
        allowed += [f"{key}.", f"{key}:"]
    return cfg, tuple(allowed), False


@given(mutants())
@settings(max_examples=300, deadline=None)
def test_every_mutant_decodes_or_names_its_key(mutant):
    cfg, allowed, must_fail = mutant
    try:
        bench.validate_config(cfg)
    except bench.ConfigError as exc:
        assert str(exc).startswith(allowed), f"{allowed[0]} mutated, got: {exc}"
    else:
        assert not must_fail, f"{allowed[0]} accepted"
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["check", str(cfg_path), "--out", str(Path(tmp) / "out")]) == 2
