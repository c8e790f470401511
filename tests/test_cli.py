"""End-to-end tests for the ``spdom`` command-line interface.

Every command is exercised in-process through ``run_command`` (via the
``cli`` fixture), in both text and JSON form.  JSON payloads are validated
against the published schemas, text output is checked against frozen lines,
and the exit-code contract (0 ok / 1 input error / 2 size guard / 3
verification failure) is asserted on every path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import jsonschema
import pytest

import oracles
from conftest import FIXTURES, run_python, run_spdom
from oracles import assemble, dictatorship, parse_assignment_file
from spdom import Catalog, ProductDomain, SizeLimitError, nonconditional_domains
from spdom.cli import _json_chunks, run_command
from spdom.classify import ResponsePartition, classify
from spdom.domfile import parse_domain_file
from spdom.rules import Rule, find_manipulation, parse_rule_file, serialize_rule
from spdom.schemas import COMMAND_SCHEMAS

EX1 = str(FIXTURES / "ex1.spdom")
EX2 = str(FIXTURES / "ex2.spdom")
SP3 = str(FIXTURES / "single_peaked3.spdom")
UNI3 = str(FIXTURES / "universal3.spdom")


def _json_of(command: str, out: str) -> dict:
    payload = json.loads(out)
    jsonschema.validate(payload, COMMAND_SCHEMAS[command])
    assert payload["command"] == command
    return payload


@pytest.fixture(scope="module")
def sp3_product():
    return parse_domain_file(Path(SP3).read_text()).product


@pytest.fixture(scope="module")
def uni1_path(tmp_path_factory):
    """A single-agent unrestricted domain, small enough for --oracle scans."""
    path = tmp_path_factory.mktemp("dom") / "uni1.spdom"
    path.write_text("alternatives x y z\n\nagent solo {\n  universal\n}\n")
    return str(path)


def _leftmost_table(pd):
    return tuple(
        min(pd.agents[i].rankings[d].order[0] for i, d in enumerate(profile))
        for profile in pd.iter_profiles()
    )


def _bottom_table(pd):
    return tuple(
        pd.agents[0].rankings[profile[0]].order[-1] for profile in pd.iter_profiles()
    )


@pytest.fixture(scope="module")
def leftmost_rule_path(tmp_path_factory, sp3_product):
    path = tmp_path_factory.mktemp("rules") / "leftmost.rule"
    path.write_text(serialize_rule(Rule(sp3_product, _leftmost_table(sp3_product))))
    return str(path)


@pytest.fixture(scope="module")
def bottom_rule_path(tmp_path_factory, sp3_product):
    path = tmp_path_factory.mktemp("rules") / "bottom.rule"
    path.write_text(serialize_rule(Rule(sp3_product, _bottom_table(sp3_product))))
    return str(path)


# ---------------------------------------------------------------------------
# classify


def test_classify_text_reparses(cli, sp3_spec):
    code, out, err = cli("classify", "--domain", SP3)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# classification (scan: default)"
    assert lines[1] == "# agent 1: conditional, 0 fixed pair(s), 1 conditional statement(s)"
    assert lines[2] == "# agent 2: conditional, 0 fixed pair(s), 1 conditional statement(s)"
    assert "when x > y => y > z" in out
    reparsed = parse_domain_file(out)
    assert [a.domain for a in reparsed.agents] == [a.domain for a in sp3_spec.agents]
    assert reparsed.agents[0].map_hint == classify(sp3_spec.agents[0].domain)


def test_classify_scan_reversed(cli, sp3_spec):
    code, out, err = cli("classify", "--domain", SP3, "--scan", "reversed")
    assert code == 0
    assert out.splitlines()[0] == "# classification (scan: reversed)"
    assert "when z > y => y > x" in out
    reparsed = parse_domain_file(out)
    assert reparsed.agents[0].map_hint == classify(
        sp3_spec.agents[0].domain, scan="reversed"
    )


def test_classify_ex1_reports_scan_derived_map(cli, ex1_spec):
    # The CLI reports the deterministic scan's map, not the file's hint; the
    # two are different-but-equivalent presentations of the same domain.
    code, out, err = cli("classify", "--domain", EX1)
    assert code == 0
    assert "when v > z => y > x" in out
    assert "when w > z => y > x" in out
    assert "when x > y =>" not in out
    reparsed = parse_domain_file(out)
    assert [a.domain for a in reparsed.agents] == [a.domain for a in ex1_spec.agents]


def test_classify_out_file(cli, tmp_path, sp3_spec):
    target = tmp_path / "classified.spdom"
    code, out, err = cli("classify", "--domain", SP3, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    reparsed = parse_domain_file(target.read_text())
    assert [a.domain for a in reparsed.agents] == [a.domain for a in sp3_spec.agents]


def test_classify_json(cli):
    code, out, err = cli("classify", "--domain", SP3, "--format", "json")
    assert code == 0
    payload = _json_of("classify", out)
    assert payload["scan"] == "default"
    assert payload["alternatives"] == ["x", "y", "z"]
    assert [a["agent"] for a in payload["agents"]] == ["1", "2"]
    for agent in payload["agents"]:
        assert agent["non_conditional"] is False
        assert agent["base"] == []
        assert agent["conditionals"] == [
            {"antecedent": [["x", "y"]], "conclusions": [["y", "z"]]}
        ]


# ---------------------------------------------------------------------------
# closure


def test_closure_text_universal(cli):
    code, out, err = cli("closure", "--domain", UNI3)
    assert code == 0
    assert "agent 1:" in out
    assert "  fixed pairs: (none)" in out
    assert "  free pairs: {x, y}; {x, z}; {y, z}" in out
    assert "  domain size: 6" in out
    assert "  closure size: 6" in out
    assert "  non-conditional: yes" in out


def test_closure_text_single_peaked(cli):
    code, out, err = cli("closure", "--domain", SP3)
    assert code == 0
    assert "  domain size: 4" in out
    assert "  closure size: 6" in out
    assert "  non-conditional: no" in out


def test_closure_json_chain(cli):
    code, out, err = cli("closure", "--domain", EX2, "--format", "json")
    assert code == 0
    payload = _json_of("closure", out)
    assert payload["alternatives"] == ["v", "w", "x", "y", "z"]
    for agent in payload["agents"]:
        assert agent["fixed"] == []
        assert len(agent["free"]) == 10
        assert agent["domain_size"] == 16
        assert agent["closure_size"] == 120
        assert agent["non_conditional"] is False


# ---------------------------------------------------------------------------
# partition


def test_partition_text_single_peaked(cli):
    code, out, err = cli("partition", "--domain", SP3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "agent 1: 2 block(s)"
    assert lines[1] == "  {} -> 3 ranking(s)"
    assert lines[2] == "  {x>y} -> 1 ranking(s)"
    assert lines[3] == "agent 2: 2 block(s)"


def test_partition_text_chain(cli):
    code, out, err = cli("partition", "--domain", EX2)
    assert code == 0
    assert "agent 1: 4 block(s)" in out
    assert "  {} -> 5 ranking(s)" in out
    assert "  {x>y} -> 6 ranking(s)" in out
    assert "  {w>x,x>y} -> 4 ranking(s)" in out
    assert "  {v>w,w>x,x>y} -> 1 ranking(s)" in out


def test_partition_json_chain(cli):
    code, out, err = cli("partition", "--domain", EX2, "--format", "json")
    assert code == 0
    payload = _json_of("partition", out)
    blocks = payload["agents"][0]["blocks"]
    assert [b["size"] for b in blocks] == [5, 6, 4, 1]
    assert [b["answers"] for b in blocks] == [
        [],
        [["x", "y"]],
        [["w", "x"], ["x", "y"]],
        [["v", "w"], ["w", "x"], ["x", "y"]],
    ]
    for block in blocks:
        assert len(block["rankings"]) == block["size"]
        assert all(len(r) == 5 for r in block["rankings"])


# ---------------------------------------------------------------------------
# count-subrules


def test_count_subrules_text_ex1(cli):
    code, out, err = cli("count-subrules", "--domain", EX1)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "alternatives: 5 (v w x y z); agents: 2; profiles: 6400"
    assert lines[1] == "naive table bound: 5^6400 (4474 digits)"
    assert (
        "response profile {}|{}: block sizes 60x60; subtotal 59 "
        "= 5 constant + 36 two-outcome + 18 dictatorial" in out
    )
    assert (
        "response profile {}|{x>y}: block sizes 60x20; subtotal 46 "
        "= 5 constant + 30 two-outcome + 11 dictatorial" in out
    )
    assert (
        "response profile {x>y}|{}: block sizes 20x60; subtotal 46 "
        "= 5 constant + 30 two-outcome + 11 dictatorial" in out
    )
    assert (
        "response profile {x>y}|{x>y}: block sizes 20x20; subtotal 37 "
        "= 5 constant + 28 two-outcome + 4 dictatorial" in out
    )
    assert lines[-1] == "strategy-proof two-step rules: 4619228 (7 digits)"


def test_count_subrules_json_ex2(cli):
    code, out, err = cli("count-subrules", "--domain", EX2, "--format", "json")
    assert code == 0
    payload = _json_of("count-subrules", out)
    assert payload["profile_count"] == 256
    assert payload["naive_digits"] == 179
    assert payload["product"] == 228245070327644160
    assert payload["product_digits"] == 18
    assert len(payload["blocks"]) == 16
    assert sorted(b["subtotal"] for b in payload["blocks"]) == [
        5, 8, 8, 9, 9, 9, 9, 14, 14, 16, 16, 17, 17, 17, 21, 21,
    ]
    for block in payload["blocks"]:
        two_outcome = sum(p["count"] for p in block["pairs"])
        dictatorial = sum(d["count"] for d in block["dictatorial"])
        assert block["subtotal"] == block["constants"] + two_outcome + dictatorial


def test_count_subrules_oracle_single_peaked(cli):
    code, out, err = cli(
        "count-subrules", "--domain", SP3, "--oracle", "--format", "json"
    )
    assert code == 0
    payload = _json_of("count-subrules", out)
    assert [b["subtotal"] for b in payload["blocks"]] == [11, 5, 5, 3]
    assert payload["product"] == 825
    assert payload["oracle"] == {"agrees": True, "catalog_sizes": [11, 5, 5, 3]}


def test_count_subrules_oracle_text(cli):
    code, out, err = cli("count-subrules", "--domain", SP3, "--oracle")
    assert code == 0
    assert "oracle (explicit catalogs): agrees" in out
    assert "DISAGREES" not in out


def test_count_subrules_oracle_mismatch(cli, monkeypatch):
    # A catalog one table short on the 3x3 block (its last member repeats its
    # first): the text report names the block and both counts, the JSON report
    # says the oracle disagrees, both exit 3.
    class RepeatingOn3x3(Catalog):
        def __init__(self, pd):
            super().__init__(pd)
            if pd.profile_count == 9:
                self.members[-1] = self.members[0]

    monkeypatch.setattr("spdom.counting.Catalog", RepeatingOn3x3)
    code, out, err = cli("count-subrules", "--domain", SP3, "--oracle")
    assert (code, err) == (3, "")
    assert out.splitlines()[-2:] == [
        "ORACLE MISMATCH at response profile {}|{}: catalog has 10 subrules, formula says 11",
        "oracle (explicit catalogs): DISAGREES",
    ]
    code, out, err = cli("count-subrules", "--domain", SP3, "--oracle", "--format", "json")
    assert (code, err) == (3, "")
    payload = _json_of("count-subrules", out)
    assert payload["oracle"] == {"agrees": False, "catalog_sizes": [10, 5, 5, 3]}


def test_count_subrules_digit_caps(cli, monkeypatch):
    # Past the print cap the text report keeps only the digit count; past the
    # JSON cap the product field becomes null (digit count still exact).
    monkeypatch.setattr("spdom.rulecli.PRINT_DIGIT_LIMIT", 5)
    code, out, err = cli("count-subrules", "--domain", EX1)
    assert code == 0
    assert out.splitlines()[-1] == "strategy-proof two-step rules: (7 digits)"
    monkeypatch.setattr("spdom.rulecli.JSON_DIGIT_LIMIT", 5)
    code, out, err = cli("count-subrules", "--domain", EX1, "--format", "json")
    assert code == 0
    payload = _json_of("count-subrules", out)
    assert payload["product"] is None
    assert payload["product_digits"] == 7


def test_count_subrules_past_the_str_digit_limit(cli, tmp_path):
    # With Python's int-to-str limit lowered to 640 digits, an 862-digit
    # product (under the text cap) and a 1,430-digit one (under the JSON cap)
    # are reported by their digit counts, as the caps would past themselves.
    domains = {}
    for name, axis, agents in (("sp3x8", "a b c", 8), ("sp4x5", "a b c d", 5)):
        domains[name] = tmp_path / f"{name}.spdom"
        domains[name].write_text(
            f"alternatives {axis}\n"
            + "".join(f"agent {i} {{ single-peaked {axis} }}\n" for i in range(agents))
        )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = cli("count-subrules", "--domain", str(domains["sp3x8"]))
        as_json = {
            name: cli("count-subrules", "--domain", str(path), "--format", "json")
            for name, path in domains.items()
        }
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = text
    assert (code, err) == (0, "")
    assert out.endswith("\nstrategy-proof two-step rules: (862 digits)\n")
    for name, digits in (("sp3x8", 862), ("sp4x5", 1430)):
        code, out, err = as_json[name]
        assert (code, err) == (0, "")
        payload = _json_of("count-subrules", out)
        assert (payload["product"], payload["product_digits"]) == (None, digits)


def test_count_subrules_past_the_table_guard(cli, tmp_path):
    # One 5040x5040 block is 25.4M cells, over the 10M table guard: the
    # closed-form count materializes no table, the --oracle catalogs would.
    path = tmp_path / "uu7.spdom"
    path.write_text("alternatives a b c d e f g\nagent 1 { universal }\nagent 2 { universal }\n")
    code, out, err = cli("count-subrules", "--domain", str(path))
    assert code == 0, err
    assert (
        "response profile {}|{}: block sizes 5040x5040; subtotal 289 "
        "= 7 constant + 84 two-outcome + 198 dictatorial"
    ) in out.splitlines()
    code, out, err = cli("count-subrules", "--domain", str(path), "--oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("size limit:") and err.count("\n") == 1


def _two_alternative_agents(path: Path, statements: list[str]) -> str:
    path.write_text(
        "alternatives a b\n"
        + "".join(f"agent {i} {{ {s} }}\n" for i, s in enumerate(statements, start=1))
    )
    return str(path)


def test_count_subrules_dedekind_guard_names_the_first_free_count(cli, tmp_path):
    # Nine agents leave {a, b} free: no published Dedekind number for n=9.
    path = _two_alternative_agents(tmp_path / "nine.spdom", ["universal"] * 9)
    assert cli("count-subrules", "--domain", path) == (
        2,
        "",
        "size limit: dedekind numbers beyond n=8 are not available (got n=9)\n",
    )


def test_count_subrules_dedekind_guard_spares_counts_that_do_not_occur(cli, tmp_path):
    # Nine agents, but the ninth fixes a > b: the pair is free for eight.
    statements = ["universal"] * 8 + ["fix a > b"]
    path = _two_alternative_agents(tmp_path / "eight.spdom", statements)
    code, out, err = cli("count-subrules", "--domain", path)
    assert (code, err) == (0, "")
    assert (
        "response profile {}|{}|{}|{}|{}|{}|{}|{}|{}: block sizes 2x2x2x2x2x2x2x2x1; "
        "subtotal 56130437228687557907788 = 2 constant + 56130437228687557907786 "
        "two-outcome + 0 dictatorial"
    ) in out.splitlines()


# Domains for the count-subrules --oracle pins past the fixtures: a 3-agent
# single-peaked product (512 profiles), the table cap's refusal (a 5040x5040
# block) and the monotone-function cap's (a pair free for six agents).
ORACLE_DOMAINS = {
    "sp4x3": ("a b c d", "single-peaked a b c d", 3),
    "uni7x2": ("a b c d e f g", "universal", 2),
    "uni3x6": ("a b c", "universal", 6),
}

# The first 32 hex digits of the sha256 of (exit code, stdout, stderr) of
# count-subrules --oracle, recorded while the oracle built every table.
COUNT_ORACLE_DIGESTS = {
    ("ex1", "text"): "45c267ce08f67ff219b2254f39ac2948",
    ("ex1", "json"): "94d1cc748196dce8c2f72718cb44d0fe",
    ("ex2", "text"): "ac342c16bdafb83e3cbb3387bb4b3b8d",
    ("ex2", "json"): "23c90168655c15f5e1bd76b555187b26",
    ("single_peaked3", "text"): "5936886b3aad8e434b1d520dfdd590f8",
    ("single_peaked3", "json"): "107f07e07ae17cf09b45971c1167eef2",
    ("universal3", "text"): "7f6f15cea83ecac10cfba2c4552975c1",
    ("universal3", "json"): "a9bb81caf802a089bdd4f8de03ddbc27",
    ("sp4x3", "text"): "dfdd2f0b01b2e27cf82904b6a616d44a",
    ("sp4x3", "json"): "de2225bf0f3d3a344e262181fbec9840",
    ("uni7x2", "text"): "795e479b824b627cab273df2884ae0ec",
    ("uni7x2", "json"): "795e479b824b627cab273df2884ae0ec",
    ("uni3x6", "text"): "635523f8120bc1fd3f19d767c3a8bc5b",
    ("uni3x6", "json"): "635523f8120bc1fd3f19d767c3a8bc5b",
}


@pytest.mark.parametrize("name, form", sorted(COUNT_ORACLE_DIGESTS))
def test_count_subrules_oracle_bytes_are_pinned(cli, tmp_path, name, form):
    if name in ORACLE_DOMAINS:
        axis, statement, agents = ORACLE_DOMAINS[name]
        domain = tmp_path / f"{name}.spdom"
        domain.write_text(
            f"alternatives {axis}\n"
            + "".join(f"agent {i} {{ {statement} }}\n" for i in range(1, agents + 1))
        )
    else:
        domain = FIXTURES / f"{name}.spdom"
    code, out, err = cli("count-subrules", "--domain", str(domain), "--oracle", "--format", form)
    record = f"{code}\0{out}\0{err}"
    assert hashlib.sha256(record.encode()).hexdigest()[:32] == COUNT_ORACLE_DIGESTS[name, form]


# ---------------------------------------------------------------------------
# enumerate-sp


def test_enumerate_sp_universal_two_agents(cli):
    code, out, err = cli("enumerate-sp", "--domain", UNI3)
    assert code == 0
    assert out.splitlines()[0] == "strategy-proof rules: 17"


def test_enumerate_sp_json(cli):
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--format", "json")
    assert code == 0
    payload = _json_of("enumerate-sp", out)
    assert payload["count"] == 17
    assert payload["range_filter"] is None
    assert payload["rules_omitted"] is False
    assert payload["oracle"] is None
    assert len(payload["rules"]) == 17
    assert [r["index"] for r in payload["rules"]] == list(range(17))
    # Tables come out in ascending lexicographic order; the first is the
    # constant rule on the first alternative.
    assert payload["rules"][0]["table"] == ["x"] * 36


def test_enumerate_sp_range_filter(cli):
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--range", "x,y")
    assert code == 0
    assert out.splitlines()[0] == "strategy-proof rules: 6 (range within {x, y})"
    code, out, err = cli(
        "enumerate-sp", "--domain", UNI3, "--range", "x,y", "--format", "json"
    )
    payload = _json_of("enumerate-sp", out)
    assert payload["count"] == 6
    assert payload["range_filter"] == ["x", "y"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_sp_range_drops_repeated_labels(cli, fmt):
    # The filter is a set: a repeated label is echoed once, first-seen order
    # kept, so the report is the one for the labels without repeats.
    argv = ("enumerate-sp", "--domain", UNI3, "--format", fmt)
    repeated = cli(*argv, "--range", "x,y,x")
    assert repeated == cli(*argv, "--range", "x,y")
    assert repeated[0] == 0
    assert cli(*argv, "--range", "y,x,y") == cli(*argv, "--range", "y,x") != repeated


def test_enumerate_sp_out_dir(cli, tmp_path):
    out_dir = tmp_path / "rules"
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--out", str(out_dir))
    assert code == 0
    assert f"wrote 17 rule file(s) to {out_dir}" in out
    files = sorted(out_dir.glob("rule_*.rule"))
    assert [f.name for f in files] == [f"rule_{i:04d}.rule" for i in range(17)]
    pd = parse_domain_file(Path(UNI3).read_text()).product
    first = parse_rule_file(files[0].read_text(), pd)
    assert first.table == (0,) * 36
    for f in files:
        rule = parse_rule_file(f.read_text(), pd)
        assert find_manipulation(rule) is None


def test_enumerate_sp_oracle_single_agent(cli, uni1_path):
    code, out, err = cli("enumerate-sp", "--domain", uni1_path, "--oracle")
    assert code == 0
    assert out.splitlines()[0] == "strategy-proof rules: 7"
    assert "oracle (full table scan): agrees (7 rules)" in out
    code, out, err = cli(
        "enumerate-sp", "--domain", uni1_path, "--oracle", "--format", "json"
    )
    payload = _json_of("enumerate-sp", out)
    assert payload["oracle"] == {"agrees": True, "count": 7}


def test_enumerate_sp_oracle_guard(cli):
    # Two unrestricted agents mean 3^36 candidate tables; the oracle refuses.
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--oracle")
    assert code == 2
    assert err == (
        f"size limit: oracle would scan {3**36} tables, over the cap of 200000\n"
    )
    assert out == ""


def test_enumerate_sp_oracle_guard_states_huge_counts_by_digits(cli):
    # ex1 has 6,400 profiles over five alternatives: 5^6400 tables, 4,474
    # digits, past what int-to-str conversion allows by default.
    code, out, err = cli("enumerate-sp", "--domain", EX1, "--oracle")
    assert code == 2
    assert err == "size limit: oracle would scan (4474 digits) tables, over the cap of 200000\n"
    assert out == ""


def test_enumerate_sp_oracle_guard_prints_counts_that_str_allows(cli):
    # Two outcomes over ex1's 6,400 profiles: 2^6400 tables, 1,927 digits,
    # past the report's print cap but within what str() converts.
    code, out, err = cli("enumerate-sp", "--domain", EX1, "--range", "v,z", "--oracle")
    assert code == 2
    assert err == f"size limit: oracle would scan {2**6400} tables, over the cap of 200000\n"
    assert out == ""


def test_enumerate_sp_oracle_guard_counts_digits_past_100000(cli, tmp_path):
    # Three unrestricted agents over five alternatives: 120^3 = 1,728,000
    # profiles and 5^1728000 tables, whose digit count comes from a logarithm.
    path = tmp_path / "uni5x3.spdom"
    agents = "".join(f"agent {i} {{ universal }}\n" for i in "123")
    path.write_text("alternatives a b c d e\n" + agents)
    exponent = Decimal(120**3) * Decimal(5).log10()
    digits = int(exponent.to_integral_value(rounding=ROUND_FLOOR)) + 1
    assert digits > 100_000
    argv = ("enumerate-sp", "--domain", str(path), "--oracle", "--max-profiles", "2000000")
    code, out, err = cli(*argv)
    assert (code, out) == (2, "")
    assert err == (
        f"size limit: oracle would scan ({digits} digits) tables, over the cap of 200000\n"
    )


def test_enumerate_sp_refused_oracle_writes_no_rule_file(cli, tmp_path):
    # The oracle's cap is checked before any rule is enumerated or written.
    out_dir = tmp_path / "rules"
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--oracle", "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"size limit: oracle would scan {3**36} tables, over the cap of 200000\n"
    assert not out_dir.exists()


def test_enumerate_sp_oracle_cap_comes_before_an_unwritable_out(cli, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = str(blocker / "rules")
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--oracle", "--out", out_dir)
    assert (code, out) == (2, "")
    assert err == f"size limit: oracle would scan {3**36} tables, over the cap of 200000\n"
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--out", out_dir)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {out_dir}: ")


def test_enumerate_sp_profile_guard(cli):
    code, out, err = cli("enumerate-sp", "--domain", EX1, "--max-profiles", "100")
    assert code == 2
    assert err.startswith("size limit:")
    assert "6400" in err


def test_enumerate_sp_table_cap_trips_before_the_search(cli, tmp_path):
    # 5040x5040 profiles pass a raised profile guard but not the 10M table
    # cap, which must fire before any per-profile work.
    path = tmp_path / "uu7.spdom"
    path.write_text("alternatives a b c d e f g\nagent 1 { universal }\nagent 2 { universal }\n")
    assert cli("enumerate-sp", "--domain", str(path), "--max-profiles", "30000000") == (
        2,
        "",
        "size limit: outcome table would need 25401600 cells, over the cap of 10000000\n",
    )


def test_enumerate_sp_holds_one_rule_at_a_time(cli, tmp_path):
    # sp4x3: three single-peaked agents over four alternatives, 1,199 rules of
    # 512 cells.  Printing their count holds one table at a time: all of them
    # at once took a traced peak of about 5.4 MB, one at a time about 0.4 MB.
    axis = "a b c d"
    path = tmp_path / "sp4x3.spdom"
    path.write_text(
        f"alternatives {axis}\n"
        + "".join(f"agent {i} {{ single-peaked {axis} }}\n" for i in "123")
    )
    cli("enumerate-sp", "--domain", UNI3)  # loads the handler's modules before tracing
    tracemalloc.start()
    try:
        result = cli("enumerate-sp", "--domain", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "strategy-proof rules: 1199\n", "")
    assert peak < 2_000_000


# The first 32 hex digits of the sha256 of enumerate-sp's stdout (text, json)
# or of its --out directory (out: each file's name, a newline and its bytes, in
# name order), recorded before the enumerator streamed its rules.  ex1 and ex2
# omit their tables from JSON; single_peaked3 and universal3 inline them.  The
# --range and --oracle cases run on the one-agent domain ``uni1_path``.
ENUMERATE_DIGESTS = {
    ("ex1", "", "text"): "66d813d46ec966c4a87f7448aef0b5b2",
    ("ex1", "", "json"): "fefd195b7443e53337f83499e00c4b97",
    ("ex1", "", "out"): "e43c92c19bc1bdd31cb77ce422c23fdd",
    ("ex2", "", "text"): "d114f05e9babd65dfa0765b04c4e1c1f",
    ("ex2", "", "json"): "2506b68ea5a44763bb15057438015a81",
    ("ex2", "", "out"): "d8ddee7eecf43f4d5228e9ea9d56ba7d",
    ("single_peaked3", "", "text"): "3d247cf2e4ebbd3a272f0493d99e804e",
    ("single_peaked3", "", "json"): "3c681d473832d74b1ee25b62fb188c3e",
    ("single_peaked3", "", "out"): "e3165735d7e0a885c1d9adb8ec07c8cc",
    ("universal3", "", "text"): "0fc7fdb24f0c146b5ec3b407f5ba447e",
    ("universal3", "", "json"): "ff193912bf27948d598f0a23e22d8e68",
    ("universal3", "", "out"): "8fef26fcef061415c82ec3896d0ef310",
    ("uni1", "--range x,y", "text"): "9b0230fbd4e0d03abd7b894e8a7d1da6",
    ("uni1", "--range x,y", "json"): "4f58773946394f717d050fb7063f4e4a",
    ("uni1", "--oracle", "text"): "ca3083e9d4664b12e5fd4500491520e0",
    ("uni1", "--oracle", "json"): "4072cc25acb96a20006df45efc394497",
}


@pytest.mark.parametrize("fixture, flags, form", sorted(ENUMERATE_DIGESTS))
def test_enumerate_sp_bytes_are_pinned(cli, tmp_path, uni1_path, fixture, flags, form):
    domain = uni1_path if fixture == "uni1" else str(FIXTURES / f"{fixture}.spdom")
    argv = ["enumerate-sp", "--domain", domain, *flags.split()]
    argv += ["--out", str(tmp_path)] if form == "out" else ["--format", form]
    code, out, err = cli(*argv)
    assert (code, err) == (0, "")
    digest = hashlib.sha256()
    if form == "out":
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    else:
        digest.update(out.encode())
    assert digest.hexdigest()[:32] == ENUMERATE_DIGESTS[fixture, flags, form]


# ---------------------------------------------------------------------------
# check-rule


def test_check_rule_strategy_proof(cli, leftmost_rule_path):
    code, out, err = cli("check-rule", "--domain", SP3, "--rule", leftmost_rule_path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "SP: yes; dictators: none; range: 3"
    assert lines[1] == "range alternatives: x, y, z"
    assert lines[2] == "audit: 0 maximality fault(s), 0 freeness fault(s)"


def test_check_rule_json_and_oracle(cli, leftmost_rule_path):
    code, out, err = cli(
        "check-rule",
        "--domain",
        SP3,
        "--rule",
        leftmost_rule_path,
        "--oracle",
        "--format",
        "json",
    )
    assert code == 0
    payload = _json_of("check-rule", out)
    assert payload["strategy_proof"] is True
    assert payload["witness"] is None
    assert payload["dictators"] == []
    assert payload["range"] == ["x", "y", "z"]
    assert payload["range_size"] == 3
    assert payload["audit"] == {
        "maximality_faults": 0,
        "freeness_faults": 0,
        "clean": True,
    }
    assert payload["oracle"] == {"agrees": True}


def test_check_rule_manipulable(cli, bottom_rule_path):
    code, out, err = cli("check-rule", "--domain", SP3, "--rule", bottom_rule_path)
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "SP: no; dictators: none; range: 2"
    assert lines[1] == "range alternatives: x, z"
    assert lines[2] == "witness: agent 1 at xyz,xyz deviating to yzx: z -> x"


def test_check_rule_manipulable_json(cli, bottom_rule_path, sp3_product):
    code, out, err = cli(
        "check-rule", "--domain", SP3, "--rule", bottom_rule_path, "--format", "json"
    )
    assert code == 3
    payload = _json_of("check-rule", out)
    assert payload["strategy_proof"] is False
    assert payload["witness"] == {
        "agent": "1",
        "profile": [["x", "y", "z"], ["x", "y", "z"]],
        "deviation": ["y", "z", "x"],
        "sincere_outcome": "z",
        "deviating_outcome": "x",
    }
    assert payload["audit"]["maximality_faults"] > 0
    assert payload["audit"]["clean"] is False
    # The CLI's witness is the library's first witness.
    w = find_manipulation(Rule(sp3_product, _bottom_table(sp3_product)))
    assert (w.agent, w.profile, w.deviation) == (0, (0, 0), 2)


def test_check_rule_dictatorship(cli, tmp_path, sp3_product):
    path = tmp_path / "dict.rule"
    path.write_text(serialize_rule(dictatorship(sp3_product, 0)))
    code, out, err = cli("check-rule", "--domain", SP3, "--rule", str(path))
    assert code == 0
    assert out.splitlines()[0] == "SP: yes; dictators: 1; range: 3"
    code, out, err = cli(
        "check-rule", "--domain", SP3, "--rule", str(path), "--format", "json"
    )
    payload = _json_of("check-rule", out)
    assert payload["dictators"] == ["1"]


# The first 32 hex digits of one sha256 over check-rule's exit code, stdout and
# stderr (text, json, or --oracle text) on each rule of a group, recorded
# before the audit counted its faults instead of listing them.  A group is
# every rule file enumerate-sp --out writes for the domain, in name order,
# then a dozen seeded random tables, which carry maximality faults.  Every
# pair is free in both fixtures, so ``fixed_pair`` (agent 2 always ranks x
# over z) is there for freeness faults.
CHECK_RULE_DIGESTS = {
    ("fixed_pair", "text"): "7965cdefbe772bb675f66866fa744d12",
    ("fixed_pair", "json"): "1df98e810c097c01624bdafa059314e8",
    ("fixed_pair", "oracle"): "0e72b309d6a014cd2fdedef18974d04d",
    ("single_peaked3", "text"): "e9f489ae8f111e0da40f18a951feb54c",
    ("single_peaked3", "json"): "fbb4e80401dc8eb67d2001a6927a8e51",
    ("single_peaked3", "oracle"): "f1700800177a119cbf9148ebab728b93",
    ("universal3", "text"): "c309996627af38ae387f21f2fc97499e",
    ("universal3", "json"): "15278def69204cf83b1bba10f250c71b",
    ("universal3", "oracle"): "d133bcaab5f8b5231f9c8b84ef93a80f",
}
FIXED_PAIR = (
    "alternatives x y z\n"
    "agent 1 { single-peaked x y z }\n"
    "agent 2 { rankings { x y z; x z y; y x z } }\n"
)


@pytest.mark.parametrize("fixture, form", sorted(CHECK_RULE_DIGESTS))
def test_check_rule_bytes_are_pinned(cli, tmp_path, fixture, form):
    path = FIXTURES / f"{fixture}.spdom"
    if fixture == "fixed_pair":
        path = tmp_path / "fixed_pair.spdom"
        path.write_text(FIXED_PAIR)
    domain, rules = str(path), tmp_path / "rules"
    assert cli("enumerate-sp", "--domain", domain, "--out", str(rules))[0] == 0
    paths = sorted(rules.iterdir())
    pd = parse_domain_file(path.read_text()).product
    rng = random.Random(2028)
    for i in range(12):
        table = tuple(rng.randrange(pd.m) for _ in range(pd.profile_count))
        paths.append(tmp_path / f"random{i}.rule")
        paths[-1].write_text(serialize_rule(Rule(pd, table)))
    flags = {"text": [], "json": ["--format", "json"], "oracle": ["--oracle"]}[form]
    digest = hashlib.sha256()
    for rule in paths:
        code, out, err = cli("check-rule", "--domain", domain, "--rule", str(rule), *flags)
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest()[:32] == CHECK_RULE_DIGESTS[fixture, form]


# ---------------------------------------------------------------------------
# decompose


def test_decompose_leftmost(cli, leftmost_rule_path):
    code, out, err = cli("decompose", "--domain", SP3, "--rule", leftmost_rule_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "response profiles: 4; dictatorial: 3; two-outcome: 1; violations: 0"
    )
    assert "{}|{} -> sp_range_le_2; range 2; dictators: none; block 3x3" in lines
    assert "{x>y}|{x>y} -> dictatorial; range 1; dictators: 1, 2; block 1x1" in lines


def test_decompose_leftmost_json(cli, leftmost_rule_path):
    code, out, err = cli(
        "decompose", "--domain", SP3, "--rule", leftmost_rule_path, "--format", "json"
    )
    assert code == 0
    payload = _json_of("decompose", out)
    assert payload["violations"] == 0
    assert [b["classification"] for b in payload["blocks"]] == [
        "sp_range_le_2",
        "dictatorial",
        "dictatorial",
        "dictatorial",
    ]
    assert payload["blocks"][0]["block_sizes"] == [3, 3]
    assert payload["blocks"][0]["range_size"] == 2
    assert payload["blocks"][3]["dictators"] == ["1", "2"]


def test_decompose_violations(cli, bottom_rule_path):
    code, out, err = cli("decompose", "--domain", SP3, "--rule", bottom_rule_path)
    assert code == 3
    lines = out.splitlines()
    # The two clean blocks are constant (range-best for everyone), so they
    # count as degenerate dictatorships rather than two-outcome subrules.
    assert lines[0] == (
        "response profiles: 4; dictatorial: 2; two-outcome: 0; violations: 2"
    )
    code, out, err = cli(
        "decompose", "--domain", SP3, "--rule", bottom_rule_path, "--format", "json"
    )
    assert code == 3
    payload = _json_of("decompose", out)
    assert payload["violations"] == 2


# ---------------------------------------------------------------------------
# verify-theorem


def test_verify_theorem_family_single_agent(cli):
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "3",
        "--agents", "1",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "instances: 19; rules checked: 79; violations: 0; audited: 0; audit faults: 0"
    )
    assert lines[1] == (
        "verified: every strategy-proof rule without a dictator attains "
        "exactly two outcomes"
    )


def test_verify_theorem_family_json_with_audit(cli):
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "3",
        "--agents", "1", "--audit-sample", "5", "--seed", "3", "--format", "json",
    )
    assert code == 0
    payload = _json_of("verify-theorem", out)
    assert payload["instances"] == 19
    assert payload["rules_checked"] == 79
    assert payload["violations"] == []
    assert payload["audited"] == 5
    assert payload["audit_faults"] == []


def test_verify_theorem_audits_a_rule_on_a_large_agent_domain(cli, tmp_path):
    # 24 rankings: the audit must not list the 2^24 - 1 sub-domains.
    path = tmp_path / "uni4.spdom"
    path.write_text("alternatives a b c d\n\nagent 1 {\n  universal\n}\n")
    code, out, err = cli("verify-theorem", "--domain", str(path), "--audit-sample", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "instances: 1; rules checked: 15; violations: 0; audited: 1; audit faults: 0"
    )


def test_verify_theorem_conditional_domain_fails(cli):
    # Single-peaked domains are conditional, so the two-outcome theorem does
    # not apply to them: the sweep must surface the wide-range SP rules.
    code, out, err = cli("verify-theorem", "--domain", SP3)
    assert code == 3
    assert "verified:" not in out
    violation_lines = [l for l in out.splitlines() if l.startswith("violation:")]
    assert len(violation_lines) == 7
    assert violation_lines[0] == (
        "violation: instance 0, range size 3, dictators: none"
    )
    code, out, err = cli("verify-theorem", "--domain", SP3, "--format", "json")
    assert code == 3
    payload = _json_of("verify-theorem", out)
    assert payload["instances"] == 1
    assert payload["rules_checked"] == 24
    assert len(payload["violations"]) == 7
    for violation in payload["violations"]:
        assert violation["instance"] == 0
        assert violation["range_size"] == 3
        assert violation["dictators"] == []
        assert len(violation["table"]) == 16
        assert set(violation["table"]) == {"x", "y", "z"}


def test_verify_theorem_usage_errors(cli):
    code, out, err = cli(
        "verify-theorem", "--domain", SP3, "--family", "nonconditional-pairs"
    )
    assert code == 1
    assert err == "error: give either --domain files or --family, not both\n"
    code, out, err = cli("verify-theorem")
    assert code == 1
    assert err == "error: verify-theorem needs --domain files or --family\n"
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--agents", "0"
    )
    assert code == 1
    assert err == "error: --agents must be at least 1, got 0\n"


def test_verify_theorem_family_size_guard(cli):
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "5",
        "--agents", "1",
    )
    assert code == 2
    assert err.startswith("size limit:")


def test_verify_theorem_guard_trips_before_the_family_is_built(cli):
    # 19**100 instances: the first one over the guard is found digit by digit.
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "3",
        "--agents", "100",
    )
    assert (code, out) == (2, "")
    assert err == "size limit: 15552 profiles exceeds the enumeration guard of 10000\n"


@pytest.mark.parametrize("agents", ["100000", "9223372036854775808"])
def test_verify_theorem_guard_trips_for_any_agent_count(agents):
    # In a subprocess with a timeout, so that a sweep that hangs fails here.
    result = run_spdom(
        ["verify-theorem", "--family", "nonconditional-pairs", "--m", "3", "--agents", agents],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "size limit: 15552 profiles exceeds the enumeration guard of 10000\n"


def test_verify_theorem_guards_the_agent_count(cli):
    # At m = 1 every instance has one profile, however many agents it has.
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "1",
        "--agents", "9223372036854775808",
    )
    assert (code, out) == (2, "")
    assert err == (
        "size limit: 9223372036854775808 agents exceeds the enumeration guard of 10000\n"
    )
    code, out, err = cli(
        "verify-theorem", "--family", "nonconditional-pairs", "--m", "1", "--agents", "10000"
    )
    assert (code, err) == (0, "")
    assert out.startswith("instances: 1; rules checked: 1; violations: 0;")


# The sha256 prefix of each non-conditional family sweep's stdout, by (m,
# agents, audit sample, seed, format): the orbit sweep's reports are pinned.
THEOREM_DIGESTS = {
    (2, 1, 0, None, "text"): "cc540bcc787daea75cc87b08b3bdebd6",
    (2, 1, 0, None, "json"): "549c013062c3139af362c0fbba7c9600",
    (2, 2, 0, None, "text"): "34f49ddeb550dd94d25471141e8c314c",
    (2, 2, 0, None, "json"): "f840cd1525001406d2d1c597e34e742c",
    (2, 3, 0, None, "text"): "52899213d73d0da49b7aab3b31eb2486",
    (2, 3, 0, None, "json"): "160335107c1202532b261f35cf7b9d0d",
    (2, 4, 0, None, "text"): "b2d8fe31caf9118bc280b98d89794bb8",
    (2, 4, 0, None, "json"): "21c7645cd13c9eab6f0ca68478e023f6",
    (3, 1, 0, None, "text"): "66d13eae0f2d51de40e8d25f280ac0b2",
    (3, 1, 0, None, "json"): "ef6fd3f8d43eaa90918c54edd95af424",
    (3, 2, 0, None, "text"): "80dd350d32c7830590f968c3ac3bf9b3",
    (3, 2, 0, None, "json"): "720a5b47c8a9d13ff1221afe00003728",
    (3, 3, 0, None, "text"): "5dc09c50234ec291a56eed6c07ae9dcc",
    (3, 3, 0, None, "json"): "34cb77e5f1d8d68eb6484729d77b7ad0",
    (3, 1, 200, 1, "text"): "7361ce3405d2fd23978805307f5cd999",
    (3, 1, 200, 1, "json"): "1db2e52b11e03e5150502265db7cf382",
    (3, 1, 200, 2, "text"): "7361ce3405d2fd23978805307f5cd999",
    (3, 1, 200, 2, "json"): "1db2e52b11e03e5150502265db7cf382",
    (3, 1, 200, 3, "text"): "7361ce3405d2fd23978805307f5cd999",
    (3, 1, 200, 3, "json"): "1db2e52b11e03e5150502265db7cf382",
    (3, 2, 200, 1, "text"): "dfdb3a51168d7650a299ce289dcaab0d",
    (3, 2, 200, 1, "json"): "87d1546f4362884334abdac50b91f280",
    (3, 2, 200, 2, "text"): "dfdb3a51168d7650a299ce289dcaab0d",
    (3, 2, 200, 2, "json"): "87d1546f4362884334abdac50b91f280",
    (3, 2, 200, 3, "text"): "dfdb3a51168d7650a299ce289dcaab0d",
    (3, 2, 200, 3, "json"): "87d1546f4362884334abdac50b91f280",
    (3, 3, 200, 1, "text"): "5906d7c7e55a7e3141d3016ca7bf4213",
    (3, 3, 200, 1, "json"): "07e2a4aec16b3f77a7fadab00ac18b47",
    (3, 3, 200, 2, "text"): "5906d7c7e55a7e3141d3016ca7bf4213",
    (3, 3, 200, 2, "json"): "07e2a4aec16b3f77a7fadab00ac18b47",
    (3, 3, 200, 3, "text"): "5906d7c7e55a7e3141d3016ca7bf4213",
    (3, 3, 200, 3, "json"): "07e2a4aec16b3f77a7fadab00ac18b47",
    (4, 1, 0, None, "text"): "9892bd9fdc6c1e4a6b8a93913d5dc76b",
    (4, 1, 0, None, "json"): "2ca4c3d9471e1271e238aa448b3dc0b2",
    (4, 2, 0, None, "text"): "bd7088b4ac17c5699dc0a8f5ae083fd2",
    (4, 2, 0, None, "json"): "486d932995282fdb4c233b67662a77c5",
    (4, 2, 50, 3, "text"): "3618fa74b1b27cda07ab86681822a4c4",
    (4, 2, 50, 3, "json"): "0bb79a4253d4cca1c75b5ba9c1914517",
}


@pytest.mark.parametrize("m, agents, audit, seed, form", sorted(THEOREM_DIGESTS, key=str))
def test_verify_theorem_bytes_are_pinned(cli, m, agents, audit, seed, form):
    argv = ["verify-theorem", "--family", "nonconditional-pairs", "--m", str(m)]
    argv += ["--agents", str(agents), "--format", form]
    if audit:
        argv += ["--audit-sample", str(audit), "--seed", str(seed)]
    code, out, err = cli(*argv)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()[:32]
    assert digest == THEOREM_DIGESTS[m, agents, audit, seed, form]


# The same pins for sweeps of --domain lists, each file its own instance, by
# (list, audit sample, format); the audits use seed 1.  Three copies of the
# single-peaked product have 21 violations, one past the 20 that are listed.
DOMAIN_LISTS = {"sp3": [SP3], "sp3-uni3": [SP3, UNI3], "sp3-sp3-sp3": [SP3] * 3}
DOMAIN_LIST_DIGESTS = {
    ("sp3", 0, "text"): "2972b6c017f340d859071105b9fecd4c",
    ("sp3", 0, "json"): "e71837edec7264cf4abeb86887530921",
    ("sp3", 5, "text"): "3037443f116deaca7d4135540235d25c",
    ("sp3", 5, "json"): "eba0da89b4991d9a113c521b56fc3309",
    ("sp3-uni3", 0, "text"): "8b363e59bbcc4879924b3efbf3593f6b",
    ("sp3-uni3", 0, "json"): "960a753fa4b565d91c3b5f9a631f29e9",
    ("sp3-uni3", 5, "text"): "fb7c2c25e64cc5583d78be3ec622311c",
    ("sp3-uni3", 5, "json"): "76dee2630194a585faa1ec228facb844",
    ("sp3-sp3-sp3", 0, "text"): "859bb3c78d04c8294bb545c52240183d",
    ("sp3-sp3-sp3", 0, "json"): "c1c0a4eb40477a51dac5f8316a4a0dba",
    ("sp3-sp3-sp3", 5, "text"): "0f04558632a22b6d7b2b0f5f399f6955",
    ("sp3-sp3-sp3", 5, "json"): "199ff714c0be72898e96accac4119a72",
}


@pytest.mark.parametrize("name, audit, form", sorted(DOMAIN_LIST_DIGESTS, key=str))
def test_verify_theorem_domain_list_bytes_are_pinned(cli, name, audit, form):
    argv = ["verify-theorem", "--format", form]
    for path in DOMAIN_LISTS[name]:
        argv += ["--domain", path]
    if audit:
        argv += ["--audit-sample", str(audit), "--seed", "1"]
    code, out, err = cli(*argv)
    assert (code, err) == (3, "")
    if form == "text" and name == "sp3-sp3-sp3":
        assert out.splitlines()[-1] == "... and 1 more violation(s)"
    digest = hashlib.sha256(out.encode()).hexdigest()[:32]
    assert digest == DOMAIN_LIST_DIGESTS[name, audit, form]


def test_verify_theorem_guard_matches_per_instance_sweep(cli):
    instances = [
        ProductDomain.of(list(combo))
        for combo in itertools.product(nonconditional_domains(3), repeat=2)
    ]
    for guard in range(1, 41):
        try:
            oracles.sweep_rules(instances, max_profiles=guard)
            expected = ""
        except SizeLimitError as exc:
            expected = f"size limit: {exc}\n"
        code, out, err = cli(
            "verify-theorem", "--family", "nonconditional-pairs", "--m", "3",
            "--agents", "2", "--max-profiles", str(guard),
        )
        assert err == expected, guard
        assert code == (2 if expected else 0)


# ---------------------------------------------------------------------------
# search-two-step


def test_search_two_step_text(cli):
    code, out, err = cli("search-two-step", "--domain", SP3)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "response profiles: 4; catalog sizes: 11x5x5x3; candidates: 825; "
        "tried: 825; complete: yes"
    )
    assert lines[1] == "strategy-proof assignments: 24"


def test_search_two_step_json(cli):
    code, out, err = cli("search-two-step", "--domain", SP3, "--format", "json")
    assert code == 0
    payload = _json_of("search-two-step", out)
    assert payload["response_profiles"] == 4
    assert payload["candidates_total"] == 825
    assert payload["candidates_tried"] == 825
    assert payload["complete"] is True
    assert payload["found"] == 24
    assert len(payload["assignments"]) == 24
    assert all(len(a) == 4 for a in payload["assignments"])


def test_search_two_step_out_dir(cli, tmp_path, sp3_spec):
    out_dir = tmp_path / "found"
    code, out, err = cli("search-two-step", "--domain", SP3, "--out", str(out_dir))
    assert code == 0
    assert f"wrote 24 assignment file(s) to {out_dir}" in out
    files = sorted(out_dir.glob("assignment_*.assign"))
    assert len(files) == 24
    partition = ResponsePartition.of(sp3_spec.product, sp3_spec.resolved_maps("default"))
    assignment = parse_assignment_file(files[0].read_text(), partition)
    rule = assemble(partition, assignment.subrules)
    assert find_manipulation(rule) is None


def test_search_two_step_budget(cli):
    code, out, err = cli("search-two-step", "--domain", SP3, "--budget", "10")
    assert code == 0
    line = out.splitlines()[0]
    assert "tried: 10" in line
    assert "complete: no" in line
    # A budget past sys.maxsize is still just "more than the candidates".
    default = cli("search-two-step", "--domain", SP3)
    assert cli("search-two-step", "--domain", SP3, "--budget", str(2**63)) == default
    assert default[0] == 0


# The first 32 hex digits of the sha256 of search-two-step's stdout (text,
# json) or of its --out directory (assign: each file's name, a newline and its
# bytes, in name order), recorded before the search kept its compatibility
# rows in per-pair tables.  The budgets are 1, 60, 2000 and the candidate total.
SEARCH_DIGESTS = {
    ("ex1", 1, "text"): "fbac59e01aa911d66a5c826a2b30f101",
    ("ex1", 1, "json"): "25f8cfbfc486f0e33f90c4814ebcdfd9",
    ("ex1", 60, "text"): "caf4fe9ebce4b8f027d5b315351bc387",
    ("ex1", 60, "json"): "7af9d2b98e98ed4eff9b0bd58f89286c",
    ("ex1", 60, "assign"): "4556c3a38a611654c8fdc9da89593df0",
    ("ex1", 2000, "text"): "c2b49054f9ff892d8a6a072c17cedf26",
    ("ex1", 2000, "json"): "d6c9ef5df271b37d3f5d6505ef749872",
    ("ex1", 4619228, "text"): "11495b5d27a07e3be1ffcb056a3a6988",
    ("ex1", 4619228, "json"): "5ba86ade3f512aaeaefb7860cc86c7f6",
    ("ex2", 1, "text"): "bed46e973c757438ad618f572175944e",
    ("ex2", 1, "json"): "fd671af0b6567995494c1c79b7b91c02",
    ("ex2", 60, "text"): "eae5b9276dcec105049b069af6cecf9b",
    ("ex2", 60, "json"): "72b6ea1da36e3c34ac1c180410ce59f8",
    ("ex2", 60, "assign"): "67677cf6c9fc5dc171b284595e677df9",
    ("ex2", 2000, "text"): "b65ffddcae5a03a9518a5c0ff0701284",
    ("ex2", 2000, "json"): "ba505376929eb3bde396de7df3fe0f36",
    ("ex2", 228245070327644160, "text"): "081bd1eb49144d8459a5419179c470de",
    ("ex2", 228245070327644160, "json"): "08e492280578bbd9e60fe207219be521",
    ("single_peaked3", 1, "text"): "e41dd57a2c100bc2140bac0e7129c418",
    ("single_peaked3", 1, "json"): "d1f422446c47862627df18581522834d",
    ("single_peaked3", 60, "text"): "13eabe8a861cacfef49b6bb5e0250ff2",
    ("single_peaked3", 60, "json"): "70485a6cd84cf78d0eb85ef814e56037",
    ("single_peaked3", 60, "assign"): "1424ea4601bde9e6ed502d6f8f0ea010",
    ("single_peaked3", 2000, "text"): "1155ac1b2a2a2a35e3f02939ec513b0b",
    ("single_peaked3", 2000, "json"): "f35a1f5d3bea85f6230651427eea6a41",
    ("single_peaked3", 825, "text"): "1155ac1b2a2a2a35e3f02939ec513b0b",
    ("single_peaked3", 825, "json"): "f35a1f5d3bea85f6230651427eea6a41",
    ("universal3", 1, "text"): "3fa0b16e152dd77d5098fad69d6fd550",
    ("universal3", 1, "json"): "e459f487f6a44433c17820402f153275",
    ("universal3", 60, "text"): "b6c2cb819506106743a5bbe95732135d",
    ("universal3", 60, "json"): "19b63be2b7114b75da7029dbea2ac3c9",
    ("universal3", 60, "assign"): "091cceb1fc6dcbf8920914cbe61dadb0",
    ("universal3", 2000, "text"): "b6c2cb819506106743a5bbe95732135d",
    ("universal3", 2000, "json"): "19b63be2b7114b75da7029dbea2ac3c9",
    ("universal3", 17, "text"): "b6c2cb819506106743a5bbe95732135d",
    ("universal3", 17, "json"): "19b63be2b7114b75da7029dbea2ac3c9",
}


@pytest.mark.parametrize("fixture, budget, form", sorted(SEARCH_DIGESTS))
def test_search_two_step_bytes_are_pinned(cli, tmp_path, fixture, budget, form):
    argv = ["search-two-step", "--domain", str(FIXTURES / f"{fixture}.spdom")]
    argv += ["--budget", str(budget)]
    argv += ["--out", str(tmp_path)] if form == "assign" else ["--format", form]
    code, out, err = cli(*argv)
    assert (code, err) == (0, "")
    digest = hashlib.sha256()
    if form == "assign":
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    else:
        digest.update(out.encode())
    assert digest.hexdigest()[:32] == SEARCH_DIGESTS[fixture, budget, form]


def test_search_two_step_profile_guard(cli, tmp_path):
    # One 120x120 block: its catalog fits, but the product is over the
    # profile guard, so the search stops before it starts.
    path = tmp_path / "uu5.spdom"
    path.write_text("alternatives a b c d e\nagent 1 { universal }\nagent 2 { universal }\n")
    assert cli("search-two-step", "--domain", str(path)) == (
        2,
        "",
        "size limit: 14400 profiles exceeds the enumeration guard of 10000\n",
    )


@pytest.mark.parametrize(
    "case, line",
    [
        ("audit", "instances: 1; rules checked: 77; violations: 0; audited: 1; audit faults: 0"),
        ("oracle", "oracle (full table scan): agrees (1 rules)"),
        ("decompose", "response profiles: 1; dictatorial: 0; two-outcome: 1; violations: 0"),
    ],
    ids=["audit", "oracle", "decompose"],
)
def test_scans_of_held_rules_pass_the_default_guard(cli, tmp_path, case, line):
    # Each command holds its 14,400-profile rules before it scans them: the
    # sweep enumerated the audited instance under --max-profiles, the oracle's
    # tables are under their own cap, and decompose has parsed the rule file.
    # The scans add no guard of their own.
    path = tmp_path / "uu5.spdom"
    path.write_text("alternatives a b c d e\nagent 1 { universal }\nagent 2 { universal }\n")
    if case == "audit":
        argv = ["verify-theorem", "--domain", str(path), "--max-profiles", "20000",
                "--audit-sample", "1", "--seed", "1"]
    elif case == "oracle":
        argv = ["enumerate-sp", "--domain", str(path), "--range", "a", "--oracle",
                "--max-profiles", "20000"]
    else:
        pd = parse_domain_file(path.read_text()).product
        rule = tmp_path / "vote.rule"
        rule.write_text(serialize_rule(Catalog(pd)[pd.m]))  # the first vote on a, b
        argv = ["decompose", "--domain", str(path), "--rule", str(rule)]
    code, out, err = cli(*argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_check_rule_profile_guard(cli, tmp_path):
    # The guard is checked once the rule file is read: a valid 36-profile
    # rule is refused, and a malformed file still reports its parse error.
    pd = parse_domain_file(Path(UNI3).read_text()).product
    good, bad = tmp_path / "dictator.rule", tmp_path / "bad.rule"
    good.write_text(serialize_rule(dictatorship(pd, 0)))
    bad.write_text("alternatives: x y z\nnot a rule line\n")
    argv = ("check-rule", "--domain", UNI3, "--max-profiles", "35", "--rule")
    assert cli(*argv, str(good)) == (
        2, "", "size limit: 36 profiles exceeds the enumeration guard of 35\n"
    )
    assert cli(*argv, str(bad)) == (
        1, "", "error: line 2, column 1: expected 'profile -> outcome'\n"
    )


def test_search_two_step_candidates_past_the_str_digit_limit(cli, tmp_path):
    # 1,000 one-profile blocks of six constants each: 6**1000 candidates, a
    # 779-digit total.  With Python's int-to-str limit lowered to 640 digits
    # the total is reported by its digit count, as text and as JSON null.
    rng = random.Random(20261018)
    orders = list(itertools.permutations("abcdef"))
    agents = "".join(
        f"agent {i} {{ rankings {{ "
        + "; ".join(" ".join(order) for order in rng.sample(orders, 10))
        + " } }\n"
        for i in (1, 2, 3)
    )
    path = tmp_path / "wide.spdom"
    path.write_text("alternatives a b c d e f\n" + agents)
    argv = ("search-two-step", "--domain", str(path), "--budget", "1")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = cli(*argv)
        as_json = cli(*argv, "--format", "json")
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = text
    assert (code, err) == (0, "")
    assert out.endswith(
        "; candidates: (779 digits); tried: 1; complete: no\n"
        "strategy-proof assignments: 1\n"
    )
    code, out, err = as_json
    assert (code, err) == (0, "")
    payload = _json_of("search-two-step", out)
    assert payload["response_profiles"] == 1000
    assert payload["candidates_total"] is None
    assert (payload["candidates_tried"], payload["found"]) == (1, 1)


def test_search_two_step_guard_trips_before_the_catalogs(tmp_path):
    # Three agents with 30 rankings of six alternatives each: 27,000 profiles.
    # No catalog can trip a cap of its own, so the profile guard refuses the
    # input before the 27,000 catalogs are built (that took seconds).
    rng = random.Random(20261018)
    orders = list(itertools.permutations("abcdef"))
    agents = "".join(
        f"agent {i} {{ rankings {{ "
        + "; ".join(" ".join(order) for order in rng.sample(orders, 30))
        + " } }\n"
        for i in (1, 2, 3)
    )
    path = tmp_path / "wide.spdom"
    path.write_text("alternatives a b c d e f\n" + agents)
    argv = ["search-two-step", "--domain", str(path)]
    start = time.perf_counter()
    result = run_spdom(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "size limit: 27000 profiles exceeds the enumeration guard of 10000\n"
    assert elapsed < 2, elapsed


def test_search_two_step_catalog_cap_keeps_its_place(cli, tmp_path):
    # Six universal agents over three alternatives: every pair is free for six
    # agents, so a catalog trips its own cap before the 46,656-profile guard.
    path = tmp_path / "six.spdom"
    path.write_text(
        "alternatives a b c\n" + "".join(f"agent {i} {{ universal }}\n" for i in range(1, 7))
    )
    assert cli("search-two-step", "--domain", str(path)) == (
        2,
        "",
        "size limit: explicit monotone-function enumeration capped at n=4, got 6\n",
    )


@pytest.mark.parametrize("command", ["search-two-step", "count-subrules"])
def test_table_cap_trips_before_the_table_is_allocated(tmp_path, command):
    # Two universal agents over eight alternatives: one block of 40320**2
    # profiles, whose constant subrules alone would take about 13 GB.  Under a
    # 1 GiB address-space limit the cap must refuse them before allocating.
    path = tmp_path / "uu8.spdom"
    path.write_text("alternatives a b c d e f g h\nagent 1 { universal }\nagent 2 { universal }\n")
    argv = [command, "--domain", str(path)]
    if command == "count-subrules":
        argv.append("--oracle")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_spdom(
        argv, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "size limit: outcome table would need 1625702400 cells, over the cap of 10000000\n"
    )


# ---------------------------------------------------------------------------
# error paths and programmatic surface


def test_missing_domain_file(cli):
    code, out, err = cli("classify", "--domain", "/nonexistent/never.spdom")
    assert code == 1
    assert err.startswith("error: cannot read /nonexistent/never.spdom")
    assert out == ""


def test_malformed_domain_file(cli, tmp_path):
    bad = tmp_path / "bad.spdom"
    bad.write_text("alternatives x y z\n\nagent 1 {\n  bogus statement\n}\n")
    code, out, err = cli("closure", "--domain", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_unknown_range_label(cli):
    code, out, err = cli("enumerate-sp", "--domain", UNI3, "--range", "x,q")
    assert code == 1
    assert err == "error: unknown alternative 'q' in --range\n"


def test_rule_file_domain_mismatch(cli, tmp_path):
    pd = parse_domain_file(Path(UNI3).read_text()).product
    path = tmp_path / "uni.rule"
    path.write_text(serialize_rule(dictatorship(pd, 0)))
    code, out, err = cli("check-rule", "--domain", SP3, "--rule", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_module_entry_point():
    result = run_spdom(["--help"], capture_output=True, text=True)
    assert result.returncode == 0
    for name in (
        "classify", "closure", "partition", "count-subrules", "enumerate-sp",
        "check-rule", "decompose", "verify-theorem", "search-two-step",
    ):
        assert name in result.stdout


@pytest.mark.parametrize("format", ["text", "json"])
def test_closed_stdout_is_one_error_line(tmp_path, format):
    # The reader of stdout is gone before the child writes.  The JSON report
    # (141,425 bytes) fails while it is written, the text one (7,838 bytes)
    # at the final flush.
    path = tmp_path / "sp5x2.spdom"
    path.write_text(
        "alternatives a b c d e\n"
        "agent 1 { single-peaked a b c d e }\nagent 2 { single-peaked a b c d e }\n"
    )
    argv = ["count-subrules", "--domain", str(path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_spdom(
            [*argv, "--format", format], stdout=write_end, stderr=subprocess.PIPE, timeout=60
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b"error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["classify", "count-subrules"])
def test_byte_order_mark_is_read_past(cli, tmp_path, command):
    marked = tmp_path / "ex1.spdom"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(EX1).read_bytes())
    assert cli(command, "--domain", str(marked)) == cli(command, "--domain", EX1)


def test_files_are_read_and_written_as_utf8(tmp_path):
    argv = ["enumerate-sp", "--domain", UNI3, "--out", str(tmp_path / "rules")]
    warn = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    done = run_python([*warn, "-m", "spdom", *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(list((tmp_path / "rules").iterdir())) == 17


def _not_utf8(tmp_path: Path) -> str:
    path = tmp_path / "latin1.spdom"
    path.write_bytes("alternatives x y \xe9\n\nagent 1 {\n  universal\n}\n".encode("latin-1"))
    return str(path)


def _through_file(tmp_path: Path) -> str:
    (tmp_path / "plain").write_text("not a directory\n")
    return str(tmp_path / "plain" / "sub")


@pytest.mark.parametrize(
    "argv, verb, path",
    [
        (lambda t: ["closure", "--domain", SP3, "--out", str(t / "missing" / "x.txt")],
         "write", lambda t: t / "missing" / "x.txt"),
        (lambda t: ["closure", "--domain", SP3, "--out", _through_file(t) + ".txt"],
         "write", lambda t: t / "plain" / "sub.txt"),
        (lambda t: ["enumerate-sp", "--domain", UNI3, "--out", _through_file(t)],
         "write", lambda t: t / "plain" / "sub"),
        (lambda t: ["search-two-step", "--domain", SP3, "--out", _through_file(t)],
         "write", lambda t: t / "plain" / "sub"),
        (lambda t: ["closure", "--domain", _not_utf8(t)],
         "read", lambda t: t / "latin1.spdom"),
        (lambda t: ["check-rule", "--domain", SP3, "--rule", _not_utf8(t)],
         "read", lambda t: t / "latin1.spdom"),
    ],
    ids=["out-missing-parent", "out-through-file", "enumerate-out-dir",
         "search-out-dir", "domain-not-utf8", "rule-not-utf8"],
)
def test_file_io_errors_exit_one(cli, tmp_path, argv, verb, path):
    code, out, err = cli(*argv(tmp_path))
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot {verb} {path(tmp_path)}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search-two-step", "--domain", SP3, "--budget", "0"],
         "argument --budget: must be at least 1, got 0"),
        (["enumerate-sp", "--domain", UNI3, "--max-profiles", "-1"],
         "argument --max-profiles: must be at least 1, got -1"),
        (["check-rule", "--domain", SP3, "--rule", SP3, "--max-profiles", "0"],
         "argument --max-profiles: must be at least 1, got 0"),
        (["verify-theorem", "--family", "nonconditional-pairs", "--max-profiles", "-1"],
         "argument --max-profiles: must be at least 1, got -1"),
        (["verify-theorem", "--family", "nonconditional-pairs", "--audit-sample", "-5"],
         "argument --audit-sample: must be at least 0, got -5"),
        (["search-two-step", "--domain", SP3, "--budget", "many"],
         "argument --budget: invalid int value: 'many'"),
    ],
    ids=["budget-0", "enumerate-max-profiles", "check-max-profiles",
         "verify-max-profiles", "audit-sample", "budget-not-int"],
)
def test_numeric_flag_usage_errors_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        run_command(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert err.endswith(f"error: {message}\n")


def test_argparse_usage_errors_exit_two():
    result = run_spdom([], capture_output=True, text=True)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    result = run_spdom(["classify"], capture_output=True, text=True)
    assert result.returncode == 2
    assert "--domain" in result.stderr


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"empty_list": [], "empty_dict": {}, "none": None, "yes": True, "no": False},
        {"label": "caf\u00e9 \u2192 \U0001f600 \"quoted\"\n\t\\", "count": -3},
        {"big": 7**1200, "nested": [[1, [2, {"deep": [[], {}]}]], {"k": [None, False]}]},
        [{"a": {"b": {"c": [0, "x", True]}}}, "tail"],
    ],
)
def test_json_text_matches_json_dumps(payload):
    assert "".join(_json_chunks(payload)) == json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        "".join(_json_chunks({"set": {1}}))


def test_json_chunks_write_iterators_as_lists():
    streamed = {"rows": ({"i": i, "row": iter(range(i))} for i in range(3)), "none": iter(())}
    held = {"rows": [{"i": i, "row": list(range(i))} for i in range(3)], "none": []}
    assert "".join(_json_chunks(streamed)) == json.dumps(held, indent=2)
    assert "".join(_json_chunks(iter(()))) == "[]"
    # A long stream is written out before it is used up.
    taken = []

    def rows():
        for i in range(100_000):
            taken.append(i)
            yield {"i": i}

    assert next(_json_chunks({"rows": rows()})).startswith('{\n  "rows": [\n    {\n      "i": 0')
    assert 0 < len(taken) < 100_000


def test_reports_are_byte_identical_across_runs(cli):
    # Determinism contract: the same invocation always produces the same bytes.
    invocations = [
        ("classify", "--domain", EX1),
        ("count-subrules", "--domain", EX2, "--format", "json"),
        ("search-two-step", "--domain", SP3),
        ("enumerate-sp", "--domain", UNI3, "--format", "json"),
    ]
    for args in invocations:
        first = cli(*args)
        second = cli(*args)
        assert first == second


# The first 32 hex digits of the sha256 of (exit code, stdout, stderr) of each
# help and usage-error invocation, with argparse formatting for an 80-column terminal.
HELP_AND_USAGE_DIGESTS = {
    ("--help",): "fe1e849e146aae997529b88b98c41a06",
    ("classify", "--help"): "a4d52311afd4aca4e17464769cd04364",
    ("closure", "--help"): "755e98259489dfb72f1b5ee0aea821ce",
    ("partition", "--help"): "5548ce5d2fd5e2fccc2548c950a085cc",
    ("count-subrules", "--help"): "869ea128dfede74e2832030d7e8fb5c5",
    ("enumerate-sp", "--help"): "3422d958c2f62f53df5eeb8549fe5051",
    ("check-rule", "--help"): "1cda6b86e78240b93735c4ed37300a94",
    ("decompose", "--help"): "8528bfd57cf6bdce54fcf882ba769799",
    ("verify-theorem", "--help"): "6f04d77e36a563e7f5959e0a7b01b629",
    ("search-two-step", "--help"): "a5e92325900824e862116ccc5a169950",
    (): "ca22533a8b1d61f703ce6f50b0400fdb",
    ("frobnicate", "--domain", "d.spdom"): "cdfcdf9e42d32a82101f125433b2765a",
    ("classify",): "bec3f55ab493644e35987ec861856c79",
    ("search-two-step", "--domain", "d.spdom", "--budget", "0"): "87d30ce3e550dddf7e043e54ee274e10",
    ("closure", "--domain", "d.spdom", "--frob"): "b8d603bf9cd9f25f12775945de87bff4",
}


@pytest.mark.parametrize("argv", list(HELP_AND_USAGE_DIGESTS), ids=" ".join)
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run_command(list(argv))
    captured = capsys.readouterr()
    record = f"{exit_info.value.code}\0{captured.out}\0{captured.err}"
    assert hashlib.sha256(record.encode()).hexdigest()[:32] == HELP_AND_USAGE_DIGESTS[argv]
