"""JSON Schemas for the machine-readable (``--format json``) CLI outputs.

One schema per subcommand, keyed by command name.  The test suite validates
every JSON output against these, so they are deliberately strict: every
object is closed, with each of its properties required and no other property
allowed (``required`` lists every property in order, and
``additionalProperties`` is false).
"""

from __future__ import annotations

from typing import Any

_SCHEMA_DIALECT = "https://json-schema.org/draft/2020-12/schema"


def _object(**properties: Any) -> dict[str, Any]:
    """A closed object: every property required, no other allowed."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _nullable(schema: dict[str, Any]) -> dict[str, Any]:
    """``schema`` (one with a single ``type``) or null."""
    return {**schema, "type": [schema["type"], "null"]}


def _array(items: Any) -> dict[str, Any]:
    return {"type": "array", "items": items}


def _command(name: str, **properties: Any) -> dict[str, Any]:
    """The report of command ``name``: a closed object led by its name."""
    return {"$schema": _SCHEMA_DIALECT, **_object(command={"const": name}, **properties)}


_STRING = {"type": "string"}
_INTEGER = {"type": "integer"}
_BOOLEAN = {"type": "boolean"}
_STRINGS = _array(_STRING)
_INTEGERS = _array(_INTEGER)

_PAIR = {**_STRINGS, "minItems": 2, "maxItems": 2}
_PAIRS = _array(_PAIR)

_RANKING = {**_STRINGS, "minItems": 1}

_WITNESS = _object(
    agent=_STRING,
    profile=_array(_RANKING),
    deviation=_RANKING,
    sincere_outcome=_STRING,
    deviating_outcome=_STRING,
)

CLASSIFY_SCHEMA = _command(
    "classify",
    scan={"enum": ["default", "reversed"]},
    alternatives=_STRINGS,
    agents=_array(
        _object(
            agent=_STRING,
            non_conditional=_BOOLEAN,
            base=_PAIRS,
            conditionals=_array(_object(antecedent=_PAIRS, conclusions=_PAIRS)),
        )
    ),
)

CLOSURE_SCHEMA = _command(
    "closure",
    alternatives=_STRINGS,
    agents=_array(
        _object(
            agent=_STRING,
            fixed=_PAIRS,
            free=_PAIRS,
            closure_size=_INTEGER,
            domain_size=_INTEGER,
            non_conditional=_BOOLEAN,
        )
    ),
)

PARTITION_SCHEMA = _command(
    "partition",
    alternatives=_STRINGS,
    agents=_array(
        _object(
            agent=_STRING,
            blocks=_array(
                _object(answers=_PAIRS, size=_INTEGER, rankings=_array(_RANKING))
            ),
        )
    ),
)

COUNT_SUBRULES_SCHEMA = _command(
    "count-subrules",
    alternatives=_STRINGS,
    agent_names=_STRINGS,
    profile_count=_INTEGER,
    naive_digits=_INTEGER,
    blocks=_array(
        _object(
            answers=_array(_PAIRS),
            block_sizes=_INTEGERS,
            constants=_INTEGER,
            pairs=_array(_object(pair=_PAIR, free_agents=_STRINGS, count=_INTEGER)),
            dictatorial=_array(_object(range_size=_INTEGER, count=_INTEGER)),
            subtotal=_INTEGER,
        )
    ),
    product=_nullable(_INTEGER),
    product_digits=_INTEGER,
    oracle=_nullable(_object(agrees=_BOOLEAN, catalog_sizes=_INTEGERS)),
)

ENUMERATE_SP_SCHEMA = _command(
    "enumerate-sp",
    count=_INTEGER,
    range_filter=_nullable(_STRINGS),
    rules=_array(_object(index=_INTEGER, table=_STRINGS)),
    rules_omitted=_BOOLEAN,
    oracle=_nullable(_object(agrees=_BOOLEAN, count=_INTEGER)),
)

CHECK_RULE_SCHEMA = _command(
    "check-rule",
    strategy_proof=_BOOLEAN,
    range=_STRINGS,
    range_size=_INTEGER,
    dictators=_STRINGS,
    witness={"anyOf": [_WITNESS, {"type": "null"}]},
    audit=_nullable(
        _object(maximality_faults=_INTEGER, freeness_faults=_INTEGER, clean=_BOOLEAN)
    ),
    oracle=_nullable(_object(agrees=_BOOLEAN)),
)

DECOMPOSE_SCHEMA = _command(
    "decompose",
    alternatives=_STRINGS,
    blocks=_array(
        _object(
            answers=_array(_PAIRS),
            block_sizes=_INTEGERS,
            classification={"enum": ["dictatorial", "sp_range_le_2", "violation"]},
            dictators=_STRINGS,
            range_size=_INTEGER,
        )
    ),
    violations=_INTEGER,
)

VERIFY_THEOREM_SCHEMA = _command(
    "verify-theorem",
    instances=_INTEGER,
    rules_checked=_INTEGER,
    violations=_array(
        _object(instance=_INTEGER, range_size=_INTEGER, dictators=_STRINGS, table=_STRINGS)
    ),
    audited=_INTEGER,
    audit_faults=_array(_object(instance=_INTEGER, reason=_STRING)),
)

SEARCH_TWO_STEP_SCHEMA = _command(
    "search-two-step",
    response_profiles=_INTEGER,
    candidates_total=_nullable(_INTEGER),
    candidates_tried=_INTEGER,
    complete=_BOOLEAN,
    found=_INTEGER,
    assignments=_array(_INTEGERS),
)

COMMAND_SCHEMAS = {
    "classify": CLASSIFY_SCHEMA,
    "closure": CLOSURE_SCHEMA,
    "partition": PARTITION_SCHEMA,
    "count-subrules": COUNT_SUBRULES_SCHEMA,
    "enumerate-sp": ENUMERATE_SP_SCHEMA,
    "check-rule": CHECK_RULE_SCHEMA,
    "decompose": DECOMPOSE_SCHEMA,
    "verify-theorem": VERIFY_THEOREM_SCHEMA,
    "search-two-step": SEARCH_TWO_STEP_SCHEMA,
}
