"""End-to-end tests for the ``spdom`` command-line interface.

Every command is exercised in-process through ``run_command`` (via the
``cli`` fixture), in both text and JSON form.  JSON payloads are validated
against the published schemas, text output is checked against frozen lines,
and the exit-code contract (0 ok / 1 input error / 2 size guard / 3
verification failure) is asserted on every path.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import FIXTURES
from spdom.cli import CommandRequest, run_command
from spdom.classify import ResponsePartition, classify
from spdom.domfile import parse_domain_file
from spdom.rules import Rule, dictatorship, find_manipulation, parse_rule_file, serialize_rule
from spdom.schemas import COMMAND_SCHEMAS
from spdom.twostep import assemble, parse_assignment_file

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


def test_count_subrules_digit_caps(cli, monkeypatch):
    # Past the print cap the text report keeps only the digit count; past the
    # JSON cap the product field becomes null (digit count still exact).
    monkeypatch.setattr("spdom.cli.PRINT_DIGIT_LIMIT", 5)
    code, out, err = cli("count-subrules", "--domain", EX1)
    assert code == 0
    assert out.splitlines()[-1] == "strategy-proof two-step rules: (7 digits)"
    monkeypatch.setattr("spdom.cli.JSON_DIGIT_LIMIT", 5)
    code, out, err = cli("count-subrules", "--domain", EX1, "--format", "json")
    assert code == 0
    payload = _json_of("count-subrules", out)
    assert payload["product"] is None
    assert payload["product_digits"] == 7


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
    assert err.startswith("size limit: oracle would scan")
    assert out == ""


def test_enumerate_sp_profile_guard(cli):
    code, out, err = cli("enumerate-sp", "--domain", EX1, "--max-profiles", "100")
    assert code == 2
    assert err.startswith("size limit:")
    assert "6400" in err


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


def test_run_command_accepts_command_request(cli, capsys):
    code = run_command(CommandRequest("closure", {"domain": SP3}))
    out = capsys.readouterr().out
    assert code == 0
    assert "non-conditional: no" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "spdom", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for name in (
        "classify", "closure", "partition", "count-subrules", "enumerate-sp",
        "check-rule", "decompose", "verify-theorem", "search-two-step",
    ):
        assert name in result.stdout


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
    result = subprocess.run(
        [sys.executable, "-m", "spdom"], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert "usage:" in result.stderr
    result = subprocess.run(
        [sys.executable, "-m", "spdom", "classify"], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert "--domain" in result.stderr


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
