"""The study-file reader and writer, held to PyYAML as the reference.

``studyfile`` reads and writes study files without a YAML library.
Whatever it reads must be what ``yaml.safe_load`` reads from the same
text, and whatever it cannot read that way must be a StudyFileError naming
the line, which ``ingest.load_config`` reports as a ConfigError.
"""

import math
import string
from dataclasses import replace

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from tariffkit import ingest, studyfile
from tariffkit import tariff as tf
from tariffkit import demand as dm


def same(read, want):
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0, which == does not
    return repr(read) == repr(want)


def flow_list_text(mapping):
    """The block text of ``mapping`` with every list entry a PyYAML flow list."""
    lines = []
    for section, entries in mapping.items():
        lines.append(f"{section}:")
        for key, value in entries.items():
            if isinstance(value, list):
                flow = yaml.safe_dump(value, default_flow_style=True, width=math.inf).strip()
                lines.append(f"  {key}: {flow}")
            else:
                lines.append(yaml.safe_dump({key: value}, sort_keys=False).rstrip("\n")
                             .replace(f"{key}:", f"  {key}:", 1))
    return "\n".join(lines) + "\n"


FINITE = hst.floats(allow_nan=False, allow_infinity=False)
POSITIVE = hst.floats(min_value=1e-300, allow_nan=False, allow_infinity=False)
NAMES = hst.text(string.ascii_letters + string.digits + "-_./", min_size=0, max_size=12)


def distinct(element, unique_by=None):
    return hst.lists(element, min_size=1, max_size=4, unique=unique_by is None,
                     unique_by=unique_by).map(tuple)


@hst.composite
def study_configs(draw):
    """A valid StudyConfig with any value each entry's rule allows."""
    horizon = draw(hst.integers(1, 3))
    classes = draw(hst.integers(1, 3))
    counts = draw(hst.none() | hst.lists(POSITIVE.filter(lambda x: x < 1e300),
                                         min_size=classes, max_size=classes).map(tuple))
    explicit = draw(hst.booleans())
    path = hst.none() | NAMES.map(lambda name: f"/data/{name}.csv")
    return ingest.StudyConfig(
        horizon=horizon,
        scenario_mode=draw(hst.sampled_from(ingest.SCENARIO_MODES)),
        output_dir=draw(NAMES),
        customer_count=math.fsum(counts) if counts else draw(POSITIVE),
        customer_classes=classes,
        sigma_rule=draw(hst.sampled_from(dm.SIGMA_RULES)),
        class_counts=counts,
        elasticity=-draw(POSITIVE),
        slope_override=draw(hst.none() | hst.lists(
            hst.lists(FINITE, min_size=horizon, max_size=horizon).map(tuple),
            min_size=horizon, max_size=horizon).map(tuple)),
        nominal_price=draw(POSITIVE),
        nominal_connection_charge=draw(FINITE),
        fixed_cost_mode="explicit" if explicit else "derived-from-nominal",
        fixed_cost_value=draw(FINITE) if explicit else None,
        family_kinds=draw(distinct(hst.sampled_from(tf.FAMILY_KINDS))),
        fixed_connection_charges=draw(distinct(FINITE, unique_by=lambda x: f"{x:.12g}")),
        pv_unit_kw=draw(POSITIVE),
        storage_capacity_kwh=draw(POSITIVE),
        storage_power_kw=draw(POSITIVE | hst.just(math.inf)),
        storage_efficiency=draw(hst.floats(min_value=1e-9, max_value=1.0)),
        storage_per_pv_kwh_per_kw=draw(FINITE.filter(lambda x: x >= 0.0)),
        capacity_grid_kw=draw(distinct(FINITE.filter(lambda x: x >= 0.0))),
        fixed_cost_grid=draw(hst.none() | distinct(FINITE)),
        fixed_cost_multipliers=draw(distinct(FINITE)),
        prices_path=draw(path),
        load_path=draw(path),
        solar_path=draw(path),
        solar_system_kw=draw(POSITIVE),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(config=ingest.StudyConfig())
@given(config=study_configs())
def test_reader_and_writer_agree_with_yaml(config, tmp_path_factory):
    mapping = ingest.config_to_mapping(config)
    block = yaml.safe_dump(mapping, sort_keys=False)
    for text in (block, flow_list_text(mapping)):
        assert same(studyfile.read(text), yaml.safe_load(text)), text
    # the writer writes the safe dump's bytes, and what it writes loads back
    assert studyfile.write(mapping) == block
    path = tmp_path_factory.mktemp("config") / "study.yaml"
    ingest.write_config(config, path)
    assert ingest.load_config(path) == config
    # an all-flow dump is one flow mapping, which the reader refuses
    with pytest.raises(studyfile.StudyFileError, match="^line 1: "):
        studyfile.read(yaml.safe_dump(mapping, sort_keys=False, default_flow_style=True))


@pytest.mark.parametrize("correlated", [True, False])
def test_gen_synthetic_study_file_is_the_safe_dump_text(tmp_path, correlated):
    paths = ingest.write_synthetic_dataset(tmp_path, n_days=2, horizon=3, correlated=correlated)
    text = (tmp_path / "study.yaml").read_text(encoding="utf-8")
    assert text == yaml.safe_dump(yaml.safe_load(text), sort_keys=False)
    assert ingest.load_config(paths["config"]).scenario_mode == (
        "paired-days" if correlated else "product-of-marginals")


STUDY_TEXT = studyfile.write(ingest.config_to_mapping(replace(
    ingest.StudyConfig(), horizon=2, slope_override=((1.0, -0.0), (0.5, 1e300)),
    fixed_cost_grid=(1e-7, 2.5), prices_path="prices.csv", solar_path="it's here.csv",
))) + "# a trailing comment\n"
FRAGMENTS = [":", "::", " ", "\t", "&a ", "*a", "!!str ", "|", ">", "{}", "{", "[", "]", "'", '"',
             "#", " #", "- ", "-", "---", "...", "\n", "\n  ", "\n    ", ",", "? ", "~", "no",
             "0x1f", "017", "1_0", "1:20", "2021-07-01", ".inf", "-.Inf", ".NaN", "1e5", "1.0e+5",
             "<<", "=", "%", "@", "\\", "\ufeff", "\x85", "\u2028", "\r", "x", "0", ".5", "+1",
             "'it''s'", '"a\\n"', "[a, b,]", "[[1], []]", "- - ", "key: v", "é"]


@hst.composite
def mutated_texts(draw):
    """A study file with one to three edits: fragments inserted, spans dropped or doubled."""
    text = draw(hst.sampled_from([STUDY_TEXT, yaml.safe_dump(
        {"study": {"horizon": 3}, "grids": {"capacity_kw": [0.0, 1.0]}},
        sort_keys=False, default_flow_style=None), "- a\n- - 1\n  - [b]\n", "study\n"]))
    for _ in range(draw(hst.integers(1, 3))):
        at = draw(hst.integers(0, len(text)))
        end = min(len(text), at + draw(hst.integers(1, 6)))
        edit = draw(hst.sampled_from(["insert", "drop", "double"]))
        if edit == "insert":
            text = text[:at] + draw(hst.sampled_from(FRAGMENTS)) + text[at:]
        elif edit == "drop":
            text = text[:at] + text[end:]
        else:
            text = text[:end] + text[at:end] + text[end:]
    return text


@settings(max_examples=400, deadline=None)
@example(text="study:\n  output_dir: [unclosed\n")
@example(text="study:\n  output_dir: 'unclosed\n")
@given(text=mutated_texts())
def test_mutated_text_reads_as_yaml_or_is_refused(text):
    try:
        read = studyfile.read(text)
    except studyfile.StudyFileError as exc:
        assert str(exc).startswith("line "), exc
        return
    assert same(read, yaml.safe_load(text)), text


READABLE = [
    ("---\nstudy:\n  horizon: 3\n", {"study": {"horizon": 3}}),
    ("# only a comment\n", None),
    ("", None),
    ("---  # an empty document\n", None),
    ("study:\n", {"study": None}),
    ("study:\n  output_dir:    # a comment\n", {"study": {"output_dir": None}}),
    ("s:\n  a: ~\n  b: Null\n  c: yes\n  d: OFF\n  e: -0\n  f: +7\n  g: 1.\n  h: .5\n",
     {"s": {"a": None, "b": None, "c": True, "d": False, "e": 0, "f": 7, "g": 1.0, "h": 0.5}}),
    ("s:\n  a: 1e5\n  b: 1.0e5\n  c: 1.0e+5\n  d: 08\n  e: 2021-7-1\n  f: -.inf\n  g: -.5\n",
     {"s": {"a": "1e5", "b": "1.0e5", "c": 1e5, "d": "08", "e": "2021-7-1", "f": -math.inf,
            "g": "-.5"}}),
    ("s:\n  a: 'it''s # not a comment'\n  b: \"x: y\"\n  c: a#b\n  d: a b  # c\n",
     {"s": {"a": "it's # not a comment", "b": "x: y", "c": "a#b", "d": "a b"}}),
    ("s:\n  a: [1, 'b', [c, []], ]\n  b: []\n", {"s": {"a": [1, "b", ["c", []]], "b": []}}),
    ("s:\n  rows:\n  - - 1.0\n    - 2\n  -   - x\n  - []\n  -\n    - y\n  - # none\n  k: v\n",
     {"s": {"rows": [[1.0, 2], ["x"], [], ["y"], None], "k": "v"}}),
    ("\ufeffs:\n    deep:\n        - a\n    next: 1\n", {"s": {"deep": ["a"], "next": 1}}),
    # roots that are not mappings, which load_config then refuses
    ("study  # a comment\n", "study"),
    ("false\n", False),
    ("[a, 1]\n", ["a", 1]),
    ("- a\n-\n- - 1\n  - 2\n", ["a", None, [1, 2]]),
]


@pytest.mark.parametrize("text, value", READABLE)
def test_subset_reads_as_yaml(text, value):
    assert same(yaml.safe_load(text), value)
    assert same(studyfile.read(text), value)


# (text, line of the refusal); PyYAML reads the first group, but not as this reader could
REFUSED = [
    ("s:\n  a: &x 1\n  b: *x\n", 2),
    ("s:\n  a: !!str 1\n", 2),
    ("s:\n  a: |\n    text\n", 2),
    ("s:\n  a: >\n    text\n", 2),
    ("s: {a: 1}\n", 1),
    ("s:\n  a: b\n    c\n", 3),
    ("s:\n  a: [1,\n    2]\n", 2),
    ("s:\n  a: 'two\n    lines'\n", 2),
    ("s:\n  a: \"tab\\t\"\n", 2),
    ("s:\n  a: 0x1f\n", 2),
    ("s:\n  a: 1_000\n", 2),
    ("s:\n  a: 1:30\n", 2),
    ("s:\n  a: 2021-07-01\n", 2),
    ("s:\n  - a: 1\n", 2),
    ("  s:\n    a: 1\n", 1),
    ("? s\n: 1\n", 1),
    ("'s':\n  a: 1\n", 1),
    ("s:\n  a: 1\n...\n", 3),
    ("s:\n  a:\n  - 1\n    - 2\n", 4),
    ("study\nmore\n", 1),
    # and PyYAML refuses these too
    ("s:\n\ta: 1\n", 2),
    ("s:\n  a: [unclosed\n", 2),
    ("s:\n  a: 'unclosed\n", 2),
    ("s:\n  a: b: c\n", 2),
    ("s:\n  a: 1\n b: 2\n", 3),
    ("s:\n  a: 1\n---\nt:\n  b: 2\n", 3),
    ("s:\n  a: \x07\n", 2),
    ("- a\nb: 1\n", 2),
]


@pytest.mark.parametrize("text, line", REFUSED)
def test_constructs_outside_the_subset_are_refused_by_line(text, line):
    with pytest.raises(studyfile.StudyFileError, match=f"^line {line}: "):
        studyfile.read(text)


def test_load_config_names_the_file_and_line(tmp_path):
    path = tmp_path / "study.yaml"
    path.write_text("study:\n  horizon: &h 3\n", encoding="utf-8")
    with pytest.raises(ingest.ConfigError, match=r"study\.yaml: invalid YAML \(line 2: "):
        ingest.load_config(path)


@pytest.mark.parametrize("text, kind", [("study\n", "str"), ("- a\n", "list"), ("[1]\n", "list"),
                                        ("3\n", "int")])
def test_load_config_refuses_a_root_that_is_not_a_mapping(tmp_path, text, kind):
    path = tmp_path / "study.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ingest.ConfigError, match=f"^config root must be a mapping, got {kind}$"):
        ingest.load_config(path)


def test_writer_quotes_what_would_read_back_otherwise():
    for value in ["", "1", "yes", "null", "a: b", "a #b", " a", "-", "- a", "[a]", "'q'",
                  "---", "...x", "2021-07-01", "1_0", "it's"]:
        text = studyfile.write({"s": {"k": value}})
        assert yaml.safe_load(text) == {"s": {"k": value}}, text
        assert studyfile.read(text) == {"s": {"k": value}}, text
    with pytest.raises(studyfile.StudyFileError, match="cannot be written"):
        studyfile.write({"s": {"k": "two\nlines"}})
