import dataclasses
import json
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlens.errors import SchemaViolation, UnknownTask
from claimlens.evaluation import WINNER_SCHEMA, score_schema
from claimlens.hierarchy import aspects_schema, keywords_schema
from claimlens.llm_gateway import (
    TASKS,
    TOP_P,
    LlmGateway,
    MockChatProvider,
    OperationLog,
    PromptInstance,
    check_schema,
    prompt_hash,
    schema_error,
)
from claimlens.perspective import STANCE_SCHEMA, SUMMARY_SCHEMA, YES_NO_SCHEMA

from .conftest import rule_gateway


def make_aspects(n=3, keywords=10):
    return {
        "aspects": [
            {
                "label": f"aspect {i}",
                "description": f"why aspect {i} matters",
                "keywords": [f"kw{i}-{j}" for j in range(keywords)],
            }
            for i in range(n)
        ]
    }


def gateway_with_default(task, response, **kwargs):
    provider = MockChatProvider({task: {"default": response}})
    return LlmGateway(provider, log=OperationLog(), **kwargs)


def coarse_instance(claim, k=5):
    return PromptInstance(
        "coarse_aspects", f"Up to {k} aspects of {claim}", aspects_schema("aspects", k),
        f"claim={claim!r}",
    )


# --- task params ---


def _params(name):
    return TASKS[name].temperature, TOP_P


def test_coarse_aspects_params():
    assert _params("coarse_aspects") == (0.3, 0.99)


def test_subaspect_discovery_params():
    assert _params("subaspect_discovery") == (0.7, 0.99)


def test_keyword_and_judge_tasks_are_cold():
    for task in ("keyword_extract", "keyword_filter", "relevance_judge",
                 "stance_detect", "eval_judge", "pairwise_judge"):
        temperature, top_p = _params(task)
        assert temperature == 0.3
        assert top_p == 0.99


def test_unknown_task():
    instance = coarse_instance("claim text")
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.task = "foo"
    with pytest.raises(UnknownTask):
        PromptInstance(task="foo", rendered_text="x", expected_schema={}, context="test")


# --- complete_json ---


def test_mock_round_trip():
    gateway = gateway_with_default("coarse_aspects", json.dumps(make_aspects()))
    got = gateway.complete_json(coarse_instance("claim text"))
    assert [a["label"] for a in got["aspects"]] == ["aspect 0", "aspect 1", "aspect 2"]


def test_retry_after_malformed_json():
    replies = iter(["this is not json", json.dumps(make_aspects())])
    gateway = rule_gateway(lambda task, prompt: next(replies))
    got = gateway.complete_json(coarse_instance("claim text"))
    assert len(got["aspects"]) == 3
    record = [r for r in gateway.log.records if r["kind"] == "llm_call"][-1]
    assert record["retries"] == 1
    assert record["status"] == "ok"


@pytest.mark.parametrize(
    "bad",
    [json.dumps(make_aspects()).replace('"aspect 0"', '"aspect \\ud800"'), "[" * 100_000],
    ids=["lone_surrogate", "nested_too_deep"],
)
def test_retry_after_reply_that_parses_to_no_usable_json(bad):
    replies = iter([bad, json.dumps(make_aspects())])
    gateway = rule_gateway(lambda task, prompt: next(replies))
    got = gateway.complete_json(coarse_instance("claim text"))
    assert got["aspects"][0]["label"] == "aspect 0"
    assert [r for r in gateway.log.records if r["kind"] == "llm_call"][-1]["retries"] == 1
    assert "Your previous output was invalid: not valid JSON: " in gateway.provider.calls[1][1]


def test_schema_violation_after_retry_budget():
    gateway = gateway_with_default("coarse_aspects", "never json")
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim text"))
    record = [r for r in gateway.log.records if r["kind"] == "llm_call"][-1]
    assert record["status"] == "schema_violation"
    assert record["retries"] == 3  # the gateway's default budget, the same for every task


def test_scripted_by_prompt_hash_beats_default():
    instance = coarse_instance("specific claim")
    h = prompt_hash(instance.rendered_text)
    provider = MockChatProvider(
        {
            "coarse_aspects": {
                "default": json.dumps(make_aspects(1)),
                "responses": {h: json.dumps(make_aspects(2))},
            }
        }
    )
    gateway = LlmGateway(provider, log=OperationLog())
    assert len(gateway.complete_json(instance)["aspects"]) == 2


def test_missing_fixture_names_context():
    provider = MockChatProvider({"coarse_aspects": {"responses": {}}})
    gateway = LlmGateway(provider, log=OperationLog())
    with pytest.raises(SchemaViolation, match="specific claim"):
        gateway.complete_json(coarse_instance("specific claim"))


def test_code_fence_stripped():
    fenced = "```json\n" + json.dumps(make_aspects(1)) + "\n```"
    gateway = gateway_with_default("coarse_aspects", fenced)
    got = gateway.complete_json(coarse_instance("claim"))
    assert len(got["aspects"]) == 1


# --- adversarial schema checks ---


def test_rejects_extra_stance_label():
    gateway = gateway_with_default("stance_detect", json.dumps({"stance": "maybe"}))
    instance = PromptInstance(
        task="stance_detect", rendered_text="judge this", expected_schema=STANCE_SCHEMA,
        context="stance",
    )
    with pytest.raises(SchemaViolation):
        gateway.complete_json(instance)


def test_rejects_missing_keyword_array():
    aspects = make_aspects(1)
    del aspects["aspects"][0]["keywords"]
    gateway = gateway_with_default("coarse_aspects", json.dumps(aspects))
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim"))


def test_rejects_non_list_aspects():
    gateway = gateway_with_default(
        "coarse_aspects", json.dumps({"aspects": "efficacy, safety"})
    )
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim"))


def test_rejects_wrong_keyword_count():
    gateway = gateway_with_default(
        "coarse_aspects", json.dumps(make_aspects(1, keywords=7))
    )
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim"))


def test_rejects_too_many_aspects():
    gateway = gateway_with_default("coarse_aspects", json.dumps(make_aspects(6)))
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim"))


# --- logging and overrides ---


def test_every_call_logged_with_hash():
    gateway = gateway_with_default("coarse_aspects", json.dumps(make_aspects()))
    instance = coarse_instance("claim text")
    gateway.complete_json(instance)
    gateway.complete_json(instance)
    calls = [r for r in gateway.log.records if r["kind"] == "llm_call"]
    assert len(calls) == 2
    assert all(c["task"] == "coarse_aspects" for c in calls)
    assert all(c["prompt_hash"] == prompt_hash(instance.rendered_text) for c in calls)


def test_temperature_override():
    gateway = gateway_with_default(
        "coarse_aspects",
        json.dumps(make_aspects()),
        temperatures={"coarse_aspects": 0.9},
    )
    assert gateway._effective_task("coarse_aspects").temperature == 0.9


def test_max_retries_override_zero():
    replies = iter(["bad", json.dumps(make_aspects())])
    gateway = rule_gateway(lambda task, prompt: next(replies), max_retries=0)
    with pytest.raises(SchemaViolation):
        gateway.complete_json(coarse_instance("claim"))


def test_aspects_schema_shape():
    schema = aspects_schema("aspects", 4)
    assert schema["properties"]["aspects"]["maxItems"] == 4
    sub = aspects_schema("subaspects", 4)
    assert sub["required"] == ["subaspects"] and list(sub["properties"]) == ["subaspects"]
    assert sub["properties"]["subaspects"] == schema["properties"]["aspects"]


# --- the owned schema check, against jsonschema as the reference ---


def _aspect(label="a", description="why", keywords=10):
    return {
        "label": label,
        "description": description,
        "keywords": [f"kw{j}" for j in range(keywords)],
    }


# (schema builder, bad instance): each kind of violation that applies.
BAD_RESPONSES = [
    (lambda: aspects_schema("aspects", 3), {}),
    (lambda: aspects_schema("aspects", 3), {"aspects": "efficacy, safety"}),
    (lambda: aspects_schema("aspects", 3), {"aspects": [_aspect()] * 4}),
    (lambda: aspects_schema("aspects", 3), {"aspects": [_aspect(keywords=7)]}),
    (lambda: aspects_schema("aspects", 3), {"aspects": [_aspect(keywords=11)]}),
    (lambda: aspects_schema("aspects", 3), {"aspects": [_aspect(label="")]}),
    (lambda: aspects_schema("aspects", 3), {"aspects": [{"label": "a", "description": "b"}]}),
    (
        lambda: aspects_schema("aspects", 3),
        {"aspects": [_aspect(), {**_aspect(), "keywords": [1] * 10}]},
    ),
    (lambda: aspects_schema("aspects", 3), "just text"),
    (lambda: aspects_schema("subaspects", 2), {"aspects": []}),
    (lambda: aspects_schema("subaspects", 2), {"subaspects": [_aspect()] * 3}),
    (lambda: aspects_schema("subaspects", 2), {"subaspects": [_aspect(description="")]}),
    (lambda: aspects_schema("subaspects", 2), {"subaspects": {"label": "a"}}),
    (lambda: keywords_schema(2, 4), {}),
    (lambda: keywords_schema(2, 4), {"keywords": ["a"]}),
    (lambda: keywords_schema(2, 4), {"keywords": ["a", "b", "c", "d", "e"]}),
    (lambda: keywords_schema(2, 4), {"keywords": ["a", ""]}),
    (lambda: keywords_schema(2, 4), {"keywords": ["a", 2]}),
    (lambda: keywords_schema(10, 10), {"keywords": "a, b"}),
    (lambda: YES_NO_SCHEMA, {}),
    (lambda: YES_NO_SCHEMA, {"answer": "Maybe"}),
    (lambda: YES_NO_SCHEMA, {"answer": True}),
    (lambda: YES_NO_SCHEMA, ["Yes"]),
    (lambda: STANCE_SCHEMA, {}),
    (lambda: STANCE_SCHEMA, {"stance": "supports"}),
    (lambda: STANCE_SCHEMA, {"stance": ""}),
    (lambda: SUMMARY_SCHEMA, {}),
    (lambda: SUMMARY_SCHEMA, {"summary": 3}),
    (lambda: SUMMARY_SCHEMA, {"summary": ["a", "b"]}),
    (lambda: WINNER_SCHEMA, {}),
    (lambda: WINNER_SCHEMA, {"winner": "C"}),
    (lambda: WINNER_SCHEMA, {"winner": "A", "rationale": 5}),
    (lambda: score_schema([1, 2, 3, 4]), {}),
    (lambda: score_schema([1, 2, 3, 4]), {"score": 5}),
    (lambda: score_schema([1, 2, 3, 4]), {"score": "3"}),
    (lambda: score_schema([0, 1]), {"score": 1, "rationale": None}),
    (lambda: score_schema([0, 1]), {"score": [0]}),
]


@pytest.mark.parametrize("make_schema, bad", BAD_RESPONSES)
def test_retry_error_text_matches_jsonschema_validate(make_schema, bad):
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(instance=bad, schema=make_schema())
    expected = f"schema violation: {reference.value.message}"
    gateway = rule_gateway(lambda task, prompt: json.dumps(bad), max_retries=1)
    instance = PromptInstance(
        task="eval_judge", rendered_text="judge this", expected_schema=make_schema(),
        context="judge",
    )
    with pytest.raises(SchemaViolation) as raised:
        gateway.complete_json(instance)
    assert str(raised.value).endswith(f"after 1 retries: {expected} (judge)")
    retry_prompt = gateway.provider.calls[1][1]
    assert retry_prompt.startswith("judge this\n\nYour previous output was invalid: ")
    assert f"invalid: {expected}\n" in retry_prompt


# Every schema builder, plus the limits no builder uses yet (a minLength
# above 1, a maxItems of 0), for the parity tests below.
SCHEMAS = {
    "aspects": aspects_schema("aspects", 3),
    "subaspects": aspects_schema("subaspects", 2),
    "keywords": keywords_schema(2, 4),
    "one_keyword": keywords_schema(1, 1),
    "yes_no": YES_NO_SCHEMA,
    "stance": STANCE_SCHEMA,
    "summary": SUMMARY_SCHEMA,
    "winner": WINNER_SCHEMA,
    "score": score_schema([1, 2, 3, 4]),
    "binary_score": score_schema([0, 1]),
    "limits": {
        "type": "object",
        "properties": {
            "code": {"type": "string", "minLength": 3},
            "none": {"type": "array", "maxItems": 0},
        },
    },
}

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.text(max_size=3),
    st.sampled_from(["Yes", "No", "A", "tie", "supports_claim"]),
)
ANY_JSON = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def valid_reply(schema):
    """A strategy for replies that satisfy ``schema``."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        properties = schema.get("properties", {})
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {name: valid_reply(properties.get(name, {})) for name in required},
            optional={n: valid_reply(s) for n, s in properties.items() if n not in required},
        )
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(
            valid_reply(schema.get("items", {})),
            min_size=low,
            max_size=schema.get("maxItems", low + 3),
        )
    if kind == "string":
        return st.text(min_size=schema.get("minLength", 0), max_size=4)
    return ANY_JSON


@st.composite
def edited(draw, value):
    """``value`` with one edit somewhere inside it: a key dropped or added, a
    value of another type, an emptied string, list items added or removed."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        keys = list(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(edited(value[key]))
        return copy
    edits = [ANY_JSON]
    if isinstance(value, dict):
        added = st.tuples(st.text(max_size=3), ANY_JSON)
        edits.append(added.map(lambda item: {**value, item[0]: item[1]}))
        if value:
            edits.append(
                st.sampled_from(list(value)).map(
                    lambda gone: {k: v for k, v in value.items() if k != gone}
                )
            )
    if isinstance(value, list):
        edits += [st.just([]), ANY_JSON.map(lambda extra: value + [extra])]
        if value:
            edits += [st.just(value[:-1]), st.just(value + value[:1])]
    if isinstance(value, str):
        edits.append(st.just(""))
    return draw(st.one_of(edits))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_builders_pass_the_meta_schema(name):
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[name])
    check_schema(SCHEMAS[name])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_schema_error_matches_best_match_on_edited_replies(name, data):
    schema = SCHEMAS[name]
    value = data.draw(valid_reply(schema), label="valid")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        value = data.draw(edited(value), label="edited")
    validator = jsonschema.Draft202012Validator(schema)
    reference = jsonschema.exceptions.best_match(validator.iter_errors(value))
    assert schema_error(schema, value) == (None if reference is None else reference.message)


# (malformed schema, the keyword the error names)
MALFORMED_SCHEMAS = [
    ({"type": "object", "required": "answer"}, "required"),
    ({"type": "object", "required": ["answer", 2]}, "required"),
    ({"properties": {"answer": {"type": "string", "pattern": "^Y"}}}, "pattern"),
    ({"type": "integer"}, "type"),
    ({"type": ["object", "null"]}, "type"),
    ({"enum": "Yes"}, "enum"),
    ({"properties": ["answer"]}, "properties"),
    ({"items": {"type": "string", "minLength": -1}}, "minLength"),
    ({"minItems": 1.5}, "minItems"),
    ({"maxItems": True}, "maxItems"),
    ({"$schema": "https://json-schema.org/draft/2020-12/schema"}, "$schema"),
]


def test_malformed_schema_raises_on_every_use():
    gateway = rule_gateway(lambda task, prompt: json.dumps({"answer": "Yes"}))
    for schema, keyword in MALFORMED_SCHEMAS:
        instance = PromptInstance(
            task="relevance_judge", rendered_text="judge this", expected_schema=schema,
            context="judge",
        )
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"schema keyword {keyword!r}")):
                gateway.complete_json(instance)
    assert gateway.provider.calls == []
