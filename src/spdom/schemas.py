"""JSON Schemas for the machine-readable (``--format json``) CLI outputs.

One schema per subcommand, keyed by command name.  The test suite validates
every JSON output against these, so they are deliberately strict
(``additionalProperties: false`` throughout).
"""

from __future__ import annotations

_PAIR = {
    "type": "array",
    "items": {"type": "string"},
    "minItems": 2,
    "maxItems": 2,
}

_ANSWER_SET = {"type": "array", "items": _PAIR}

_RANKING = {"type": "array", "items": {"type": "string"}, "minItems": 1}

_WITNESS = {
    "type": "object",
    "properties": {
        "agent": {"type": "string"},
        "profile": {"type": "array", "items": _RANKING},
        "deviation": _RANKING,
        "sincere_outcome": {"type": "string"},
        "deviating_outcome": {"type": "string"},
    },
    "required": ["agent", "profile", "deviation", "sincere_outcome", "deviating_outcome"],
    "additionalProperties": False,
}

CLASSIFY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "classify"},
        "scan": {"enum": ["default", "reversed"]},
        "alternatives": {"type": "array", "items": {"type": "string"}},
        "agents": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "agent": {"type": "string"},
                    "non_conditional": {"type": "boolean"},
                    "base": {"type": "array", "items": _PAIR},
                    "conditionals": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "antecedent": {"type": "array", "items": _PAIR},
                                "conclusions": {"type": "array", "items": _PAIR},
                            },
                            "required": ["antecedent", "conclusions"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["agent", "non_conditional", "base", "conditionals"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["command", "scan", "alternatives", "agents"],
    "additionalProperties": False,
}

CLOSURE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "closure"},
        "alternatives": {"type": "array", "items": {"type": "string"}},
        "agents": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "agent": {"type": "string"},
                    "fixed": {"type": "array", "items": _PAIR},
                    "free": {"type": "array", "items": _PAIR},
                    "closure_size": {"type": "integer"},
                    "domain_size": {"type": "integer"},
                    "non_conditional": {"type": "boolean"},
                },
                "required": [
                    "agent",
                    "fixed",
                    "free",
                    "closure_size",
                    "domain_size",
                    "non_conditional",
                ],
                "additionalProperties": False,
            },
        },
    },
    "required": ["command", "alternatives", "agents"],
    "additionalProperties": False,
}

PARTITION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "partition"},
        "alternatives": {"type": "array", "items": {"type": "string"}},
        "agents": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "agent": {"type": "string"},
                    "blocks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "answers": _ANSWER_SET,
                                "size": {"type": "integer"},
                                "rankings": {"type": "array", "items": _RANKING},
                            },
                            "required": ["answers", "size", "rankings"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["agent", "blocks"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["command", "alternatives", "agents"],
    "additionalProperties": False,
}

COUNT_SUBRULES_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "count-subrules"},
        "alternatives": {"type": "array", "items": {"type": "string"}},
        "agent_names": {"type": "array", "items": {"type": "string"}},
        "profile_count": {"type": "integer"},
        "naive_digits": {"type": "integer"},
        "blocks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "answers": {"type": "array", "items": _ANSWER_SET},
                    "block_sizes": {"type": "array", "items": {"type": "integer"}},
                    "constants": {"type": "integer"},
                    "pairs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "pair": _PAIR,
                                "free_agents": {"type": "array", "items": {"type": "string"}},
                                "count": {"type": "integer"},
                            },
                            "required": ["pair", "free_agents", "count"],
                            "additionalProperties": False,
                        },
                    },
                    "dictatorial": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "range_size": {"type": "integer"},
                                "count": {"type": "integer"},
                            },
                            "required": ["range_size", "count"],
                            "additionalProperties": False,
                        },
                    },
                    "subtotal": {"type": "integer"},
                },
                "required": [
                    "answers",
                    "block_sizes",
                    "constants",
                    "pairs",
                    "dictatorial",
                    "subtotal",
                ],
                "additionalProperties": False,
            },
        },
        "product": {"type": ["integer", "null"]},
        "product_digits": {"type": "integer"},
        "oracle": {
            "type": ["object", "null"],
            "properties": {
                "agrees": {"type": "boolean"},
                "catalog_sizes": {"type": "array", "items": {"type": "integer"}},
            },
            "required": ["agrees", "catalog_sizes"],
            "additionalProperties": False,
        },
    },
    "required": [
        "command",
        "alternatives",
        "agent_names",
        "profile_count",
        "naive_digits",
        "blocks",
        "product",
        "product_digits",
        "oracle",
    ],
    "additionalProperties": False,
}

ENUMERATE_SP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "enumerate-sp"},
        "count": {"type": "integer"},
        "range_filter": {
            "type": ["array", "null"],
            "items": {"type": "string"},
        },
        "rules": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "index": {"type": "integer"},
                    "table": {"type": "array", "items": {"type": "string"}},
                },
                "required": ["index", "table"],
                "additionalProperties": False,
            },
        },
        "rules_omitted": {"type": "boolean"},
        "oracle": {
            "type": ["object", "null"],
            "properties": {
                "agrees": {"type": "boolean"},
                "count": {"type": "integer"},
            },
            "required": ["agrees", "count"],
            "additionalProperties": False,
        },
    },
    "required": ["command", "count", "range_filter", "rules", "rules_omitted", "oracle"],
    "additionalProperties": False,
}

CHECK_RULE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "check-rule"},
        "strategy_proof": {"type": "boolean"},
        "range": {"type": "array", "items": {"type": "string"}},
        "range_size": {"type": "integer"},
        "dictators": {"type": "array", "items": {"type": "string"}},
        "witness": {"anyOf": [_WITNESS, {"type": "null"}]},
        "audit": {
            "type": ["object", "null"],
            "properties": {
                "maximality_faults": {"type": "integer"},
                "freeness_faults": {"type": "integer"},
                "clean": {"type": "boolean"},
            },
            "required": ["maximality_faults", "freeness_faults", "clean"],
            "additionalProperties": False,
        },
        "oracle": {
            "type": ["object", "null"],
            "properties": {"agrees": {"type": "boolean"}},
            "required": ["agrees"],
            "additionalProperties": False,
        },
    },
    "required": [
        "command",
        "strategy_proof",
        "range",
        "range_size",
        "dictators",
        "witness",
        "audit",
        "oracle",
    ],
    "additionalProperties": False,
}

DECOMPOSE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "decompose"},
        "alternatives": {"type": "array", "items": {"type": "string"}},
        "blocks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "answers": {"type": "array", "items": _ANSWER_SET},
                    "block_sizes": {"type": "array", "items": {"type": "integer"}},
                    "classification": {
                        "enum": ["dictatorial", "sp_range_le_2", "violation"]
                    },
                    "dictators": {"type": "array", "items": {"type": "string"}},
                    "range_size": {"type": "integer"},
                },
                "required": [
                    "answers",
                    "block_sizes",
                    "classification",
                    "dictators",
                    "range_size",
                ],
                "additionalProperties": False,
            },
        },
        "violations": {"type": "integer"},
    },
    "required": ["command", "alternatives", "blocks", "violations"],
    "additionalProperties": False,
}

VERIFY_THEOREM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "verify-theorem"},
        "instances": {"type": "integer"},
        "rules_checked": {"type": "integer"},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "instance": {"type": "integer"},
                    "range_size": {"type": "integer"},
                    "dictators": {"type": "array", "items": {"type": "string"}},
                    "table": {"type": "array", "items": {"type": "string"}},
                },
                "required": ["instance", "range_size", "dictators", "table"],
                "additionalProperties": False,
            },
        },
        "audited": {"type": "integer"},
        "audit_faults": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "instance": {"type": "integer"},
                    "reason": {"type": "string"},
                },
                "required": ["instance", "reason"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["command", "instances", "rules_checked", "violations", "audited", "audit_faults"],
    "additionalProperties": False,
}

SEARCH_TWO_STEP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "command": {"const": "search-two-step"},
        "response_profiles": {"type": "integer"},
        "candidates_total": {"type": "integer"},
        "candidates_tried": {"type": "integer"},
        "complete": {"type": "boolean"},
        "found": {"type": "integer"},
        "assignments": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "required": [
        "command",
        "response_profiles",
        "candidates_total",
        "candidates_tried",
        "complete",
        "found",
        "assignments",
    ],
    "additionalProperties": False,
}

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
