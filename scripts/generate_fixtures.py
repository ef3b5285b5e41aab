#!/usr/bin/env python3
"""Regenerate the end-to-end test fixtures and frozen goldens.

Two passes, each running the shipped stage commands (ingest, build,
perspectives, evaluate) on the fixture config:

1. A reference run, whose gateway wraps a deterministic rule-based chat
   provider in a recorder; every (task, prompt hash) -> response pair lands in
   the transcript directory.
2. A replay of that transcript through the shipped mock provider. Every file
   the two passes write must match byte for byte; the replay's artifacts are
   then frozen under tests/data/golden/.

The generator asserts the properties the test suite relies on (stance
variety, a paper appearing in both support and oppose buckets of one node,
an irrelevant segment being dropped) before freezing anything.

Usage: python3 scripts/generate_fixtures.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from claimlens import cli
from claimlens.hierarchy import AspectHierarchy
from claimlens.llm_gateway import LlmGateway
from tests.fixture_config import make_fixture_config

DATA_DIR = REPO_ROOT / "tests" / "data"
GOLDEN_DIR = DATA_DIR / "golden"
TRANSCRIPT_DIR = DATA_DIR / "transcript"

# ---------------------------------------------------------------------------
# Vocabulary and canned taxonomy
# ---------------------------------------------------------------------------

SHARED = ["vaccine", "alpha", "beta", "trial", "participants", "dose"]

LEAF_VOCAB = {
    "neutralizing titers": ["neutralizing", "titers", "serum", "assay", "antibody",
                            "immunogenic", "seroconversion", "binding", "potency", "dilution"],
    "waning immunity": ["waning", "durability", "decline", "booster", "persistence",
                        "memory", "longevity", "timepoint", "interval", "halflife"],
    "variant escape": ["variant", "escape", "mutation", "spike", "lineage",
                       "evasion", "genomic", "substitution", "antigenic", "drift"],
    "hospitalization outcomes": ["hospitalization", "admission", "intensive", "ventilation",
                                 "oxygen", "ward", "discharge", "triage", "inpatient", "severity"],
    "pediatric myocarditis": ["pediatric", "myocarditis", "cardiac", "troponin", "adolescent",
                              "inflammation", "chest", "electrocardiogram", "pericarditis", "palpitations"],
    "dosing reactions": ["dosing", "fever", "infant", "microgram", "rash",
                         "irritability", "swelling", "toddler", "fatigue", "soreness"],
    "clotting events": ["clotting", "thrombosis", "platelet", "embolism", "coagulation",
                        "vascular", "stroke", "anticoagulant", "hematology", "fibrin"],
    "allergic reactions": ["allergic", "anaphylaxis", "histamine", "hives", "epinephrine",
                           "urticaria", "allergen", "sensitivity", "flushing", "antihistamine"],
    "frailty complications": ["frailty", "geriatric", "comorbidity", "falls", "delirium",
                              "weakness", "nursing", "octogenarian", "polypharmacy", "sarcopenia"],
    "mortality signals": ["mortality", "survival", "fatality", "actuarial", "hazard",
                          "excess", "centenarian", "autopsy", "certificate", "lifespan"],
    "ultracold storage": ["ultracold", "freezer", "thermal", "celsius", "refrigeration",
                          "dryice", "insulated", "coldbox", "thaw", "stability"],
    "last mile transport": ["courier", "lastmile", "rural", "drone", "roadway",
                            "depot", "vans", "routes", "villages", "dispatch"],
    "manufacturing scale": ["manufacturing", "bioreactor", "batch", "yield", "facility",
                            "fillfinish", "workforce", "scaleup", "output", "throughput"],
    "raw material sourcing": ["lipid", "nanoparticle", "reagent", "supplier", "procurement",
                              "shortage", "vials", "stopper", "nucleotide", "tubing"],
}

ADMIN_VOCAB = ["registry", "paperwork", "consent", "ethics", "forms",
               "protocol", "amendment", "signature", "archive", "submission"]

GEOLOGY = ["basalt", "magma", "tectonic", "erosion", "sediment",
           "quartz", "volcanic", "mineral", "stratum", "fossil"]
COOKING = ["sourdough", "basil", "simmer", "broth", "skillet",
           "marinade", "yeast", "saucepan", "garnish", "whisk"]

SUPPORT_CUE = "outperformed"
OPPOSE_CUE = "underperformed"
IRRELEVANT_CUE = "paperwork"
OFF_TOPIC_MARKERS = set(GEOLOGY) | set(COOKING)


def _interleave(*pools: list[str]) -> list[str]:
    out = []
    for row in zip(*pools):
        out.extend(row)
    return out


TAXONOMY = {
    None: [  # coarse aspects under the claim
        ("efficacy", "How strongly each vaccine protects against infection and disease.",
         ["antibody response", "breakthrough infections"]),
        ("safety", "The adverse event profile of each vaccine across age groups.",
         ["safety for children", "safety for adults", "safety for elderly"]),
        ("distribution", "The logistics of storing, shipping, and delivering each vaccine.",
         ["cold chain logistics", "supply capacity"]),
    ],
}

MID_LAYER = {
    "antibody response": ("Magnitude and quality of the induced antibody response.",
                          ["neutralizing titers", "waning immunity"]),
    "breakthrough infections": ("Infections occurring despite vaccination.",
                                ["variant escape", "hospitalization outcomes"]),
    "safety for children": ("Adverse events in pediatric recipients.",
                            ["pediatric myocarditis", "dosing reactions"]),
    "safety for adults": ("Adverse events in adult recipients.",
                          ["clotting events", "allergic reactions"]),
    "safety for elderly": ("Adverse events in elderly recipients.",
                           ["frailty complications", "mortality signals"]),
    "cold chain logistics": ("Temperature-controlled storage and transport demands.",
                             ["ultracold storage", "last mile transport"]),
    "supply capacity": ("Ability to produce and source doses at scale.",
                        ["manufacturing scale", "raw material sourcing"]),
}

LEAF_DESCRIPTIONS = {
    "neutralizing titers": "Measured neutralizing antibody levels after vaccination.",
    "waning immunity": "How quickly protection declines over time.",
    "variant escape": "Whether new lineages evade vaccine-induced immunity.",
    "hospitalization outcomes": "Severe outcomes among breakthrough cases.",
    "pediatric myocarditis": "Cardiac inflammation signals in children.",
    "dosing reactions": "Reactogenicity of pediatric dose schedules.",
    "clotting events": "Thrombotic events reported in adults.",
    "allergic reactions": "Acute hypersensitivity reactions in adults.",
    "frailty complications": "Complications interacting with geriatric frailty.",
    "mortality signals": "Mortality differentials in elderly cohorts.",
    "ultracold storage": "Freezer-chain requirements at depots and clinics.",
    "last mile transport": "Reaching remote administration sites intact.",
    "manufacturing scale": "Production throughput across facilities.",
    "raw material sourcing": "Availability of critical inputs.",
}


def children_of(label: str | None):
    if label is None or label in {c[0] for c in TAXONOMY[None]}:
        if label is None:
            return TAXONOMY[None]
        mids = {c[0]: c for c in TAXONOMY[None]}
        _, _, child_labels = mids[label]
        return [
            (kid, MID_LAYER[kid][0], MID_LAYER[kid][1]) for kid in child_labels
        ]
    if label in MID_LAYER:
        _, leaves = MID_LAYER[label]
        return [(leaf, LEAF_DESCRIPTIONS[leaf], []) for leaf in leaves]
    return []


def keyword_candidates(label: str) -> list[str]:
    """20 candidate keywords per enrichable aspect, child themes interleaved."""
    if label in LEAF_VOCAB:
        return LEAF_VOCAB[label][:10] * 2
    if label in MID_LAYER:
        _, leaves = MID_LAYER[label]
        return _interleave(*(LEAF_VOCAB[leaf] for leaf in leaves))[:20]
    coarse = {c[0]: c[2] for c in TAXONOMY[None]}
    if label in coarse:
        pools = []
        for mid in coarse[label]:
            _, leaves = MID_LAYER[mid]
            for leaf in leaves:
                pools.append(LEAF_VOCAB[leaf])
        return _interleave(*pools)[:20]
    raise KeyError(f"no keyword candidates for {label!r}")


def coarse_payload() -> dict:
    return {
        "aspects": [
            {"label": label, "description": desc, "keywords": keyword_candidates(label)[:10]}
            for label, desc, _ in TAXONOMY[None]
        ]
    }


def subaspect_payload(parent_label: str) -> dict:
    kids = children_of(parent_label)
    return {
        "subaspects": [
            {
                "label": label,
                "description": desc,
                "keywords": keyword_candidates(label)[:10],
            }
            for label, desc, _ in kids
        ]
    }


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


def _block(rng: random.Random, vocab, stance: str | None, salt: str, n_sentences=7):
    sentences = []
    for i in range(n_sentences):
        words = [rng.choice(vocab) for _ in range(9)]
        words.insert(rng.randrange(3), rng.choice(SHARED))
        words.append(f"cohort{salt}{i}")
        if stance == "support" and i in (1, 4):
            words[2:2] = ["alpha", SUPPORT_CUE, "beta"]
        if stance == "oppose" and i in (1, 4):
            words[2:2] = ["alpha", OPPOSE_CUE, "beta"]
        sentences.append(" ".join(words).capitalize() + ".")
    return sentences


def build_doc_plan(rng: random.Random):
    """(doc_id, title, [(vocab_key, stance), ...]) for all 30 documents."""
    leaves = list(LEAF_VOCAB)
    stances = ["support", "neutral", "oppose"]
    plan = []
    counter = 0
    for i in range(1, 23):
        blocks = []
        for _ in range(3):
            leaf = leaves[counter % len(leaves)]
            stance = stances[counter % len(stances)]
            blocks.append((leaf, stance))
            counter += 1
        plan.append((f"d{i:02d}", f"Study {i} on vaccine comparison", blocks))
    # d23: the overlap document: support and oppose on the same leaf theme,
    # separated by an unrelated block so segmentation keeps them apart.
    plan.append(
        (
            "d23",
            "Study 23 on adult clotting outcomes",
            [("clotting events", "support"), ("frailty complications", "neutral"),
             ("clotting events", "oppose")],
        )
    )
    # d24: administrative block that is claim-adjacent but stance-irrelevant.
    plan.append(
        (
            "d24",
            "Study 24 with trial registry appendix",
            [("pediatric myocarditis", "support"), ("__admin__", None),
             ("ultracold storage", "neutral")],
        )
    )
    for i, vocab in zip(range(25, 31), [GEOLOGY, COOKING] * 3):
        plan.append((f"d{i:02d}", f"Field notes {i}", [("__off__", vocab), ("__off__", vocab)]))
    return plan


def build_corpus(rng: random.Random) -> list[dict]:
    records = []
    for doc_id, title, blocks in build_doc_plan(rng):
        sentences: list[str] = []
        for b_idx, (key, stance) in enumerate(blocks):
            salt = f"{doc_id[1:]}x{b_idx}"
            if key == "__admin__":
                sentences += _block(rng, ADMIN_VOCAB + SHARED, None, salt, 8)
            elif key == "__off__":
                sentences += _block(rng, stance, None, salt, 8)  # stance holds the vocab
            else:
                sentences += _block(rng, LEAF_VOCAB[key] + SHARED, stance, salt, 7)
        records.append({"doc_id": doc_id, "title": title, "text": " ".join(sentences)})
    return records


# ---------------------------------------------------------------------------
# Rule-based reference provider
# ---------------------------------------------------------------------------


def _extract(pattern: str, prompt: str) -> str:
    match = re.search(pattern, prompt, flags=re.DOTALL)
    if not match:
        raise AssertionError(f"pattern {pattern!r} not found in prompt:\n{prompt[:400]}")
    return match.group(1)


def rule_llm(task: str, prompt: str) -> str:
    if task == "coarse_aspects":
        return json.dumps(coarse_payload())

    if task == "keyword_extract":
        label = _extract(r"focus on the aspect (.+?)\. The aspect,", prompt)
        return json.dumps({"keywords": keyword_candidates(label)})

    if task == "keyword_filter":
        label = _extract(r"target aspect '(.+?)'", prompt)
        return json.dumps({"keywords": keyword_candidates(label)[:10]})

    if task == "subaspect_discovery":
        label = _extract(r"parent_aspect: (.+?);", prompt)
        return json.dumps(subaspect_payload(label))

    if task == "relevance_judge":
        segment = _extract(r"The segment is: (.+?)\nThe claim is:", prompt).lower()
        off_topic = any(marker in segment for marker in OFF_TOPIC_MARKERS)
        return json.dumps({"answer": "No" if off_topic else "Yes"})

    if task == "stance_detect":
        segment = _extract(r"Segment: (.+?)\n", prompt).lower()
        if IRRELEVANT_CUE in segment:
            stance = "irrelevant_to_claim"
        elif OPPOSE_CUE in segment:
            stance = "opposes_claim"
        elif SUPPORT_CUE in segment:
            stance = "supports_claim"
        else:
            stance = "neutral_to_claim"
        return json.dumps({"stance": stance})

    if task == "perspective_summarize":
        label = _extract(r"The aspect under analysis is: (.+?):", prompt)
        stance = _extract(r"take the '(\w+)' stance", prompt)
        count = sum(1 for line in prompt.splitlines() if re.match(r"\[\d+\] ", line))
        return json.dumps(
            {"summary": f"The {stance} position on {label} rests on {count} corpus segments."}
        )

    if task == "eval_judge":
        if "is relevant to the analysis of the claim" in prompt:
            return json.dumps({"score": 1, "rationale": "aspect bears on the claim"})
        if "has good granularity" in prompt:
            return json.dumps({"score": 1, "rationale": "each step narrows the parent"})
        if "same level of specificity" in prompt:
            parent = _extract(r"parent aspect '(.+?)'", prompt)
            score = 4 if "safety" in parent else 3
            return json.dumps({"score": score, "rationale": "sibling specificity"})
        if "unique in the taxonomy" in prompt:
            return json.dumps({"score": 1, "rationale": "no overlapping node"})
        if "evaluate whether this segment" in prompt:
            label = _extract(r"the aspect '(.+?)'", prompt)
            segment = _extract(r"Segment: (.+?)\n", prompt).lower()
            head = label.split()[0].lower()
            score = 1 if head in segment else 0
            return json.dumps({"score": score, "rationale": "lexical grounding check"})
        raise AssertionError(f"unrecognized eval prompt:\n{prompt[:200]}")

    raise AssertionError(f"unexpected task {task}")


class RecordingProvider:
    def __init__(self, fn):
        self.fn = fn
        self.script: dict[str, dict] = {}

    def complete(self, task, prompt: str, base_hash: str) -> str:
        response = self.fn(task.name, prompt)
        bucket = self.script.setdefault(task.name, {"responses": {}})
        existing = bucket["responses"].get(base_hash)
        if existing is not None and existing != response:
            raise AssertionError(f"hash collision with different responses: {task.name}")
        bucket["responses"][base_hash] = response
        return response


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"fixture sanity check failed: {message}")


def run_stages(out: Path) -> cli.Paths:
    """Run ``ingest``, ``build``, ``perspectives`` and ``evaluate`` on the fixture
    config, writing into ``out``."""
    config = make_fixture_config(DATA_DIR, out)
    paths = cli.Paths(str(out))
    cli.cmd_ingest(config)
    cli.cmd_build(config)
    cli.cmd_perspectives(config)
    cli.cmd_evaluate(config, [str(paths.perspectives)])
    return paths


def main() -> None:
    rng = random.Random(2024)
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    corpus_records = build_corpus(rng)
    corpus_path = DATA_DIR / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in corpus_records:
            fh.write(json.dumps(record, ensure_ascii=True) + "\n")
    print(f"wrote {len(corpus_records)} documents to {corpus_path}")

    with tempfile.TemporaryDirectory() as tmp:
        # --- pass 1: reference run, recording the transcript ---
        recorder = RecordingProvider(rule_llm)
        shipped_gateway = cli.make_gateway
        cli.make_gateway = lambda config, log: LlmGateway(recorder, log=log)
        try:
            reference = run_stages(Path(tmp) / "reference")
        finally:
            cli.make_gateway = shipped_gateway
        tree = AspectHierarchy.from_dict(json.loads(reference.perspectives.read_text()))

        # --- sanity checks on the reference run ---
        check(len(tree.nodes) >= 15, f"tree too small: {len(tree.nodes)}")
        check(
            [tree.node(c).label for c in tree.node("0").children]
            == ["efficacy", "safety", "distribution"],
            "coarse aspects wrong",
        )
        stances_seen = set()
        overlap_nodes = []
        dropped = 0
        for node_id in tree.sorted_ids():
            node = tree.node(node_id)
            pset = node.perspectives
            for stance in ("support", "neutral", "oppose"):
                if pset.bucket(stance).segment_ids:
                    stances_seen.add(stance)
            both = set(pset.support.paper_ids) & set(pset.oppose.paper_ids)
            if both:
                overlap_nodes.append((node_id, sorted(both)))
            bucketed = (
                set(pset.support.segment_ids)
                | set(pset.neutral.segment_ids)
                | set(pset.oppose.segment_ids)
            )
            dropped += len(set(node.attached_segments) - bucketed)
        check(stances_seen == {"support", "neutral", "oppose"}, f"stances seen: {stances_seen}")
        check(bool(overlap_nodes), "no node has a paper in both support and oppose")
        check(dropped > 0, "no attached segment was dropped as irrelevant")
        print(f"overlap nodes: {overlap_nodes}")
        print(f"irrelevant-dropped attachments: {dropped}")

        # --- write transcript ---
        if TRANSCRIPT_DIR.exists():
            shutil.rmtree(TRANSCRIPT_DIR)
        TRANSCRIPT_DIR.mkdir(parents=True)
        for task_name, payload in sorted(recorder.script.items()):
            out_path = TRANSCRIPT_DIR / f"{task_name}.json"
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=True)
                fh.write("\n")
        total = sum(len(p["responses"]) for p in recorder.script.values())
        print(f"transcript: {total} fixtures across {len(recorder.script)} tasks")

        # --- pass 2: replay through the same stages, compare, freeze goldens ---
        replay = run_stages(Path(tmp) / "replay")
        for path in sorted(reference.root.iterdir()):
            check(
                path.read_bytes() == (replay.root / path.name).read_bytes(),
                f"replay diverged from reference run in {path.name}",
            )
        cli.cmd_report(str(replay.perspectives), "markdown", str(replay.root / "report.md"))
        cli.cmd_report(str(replay.perspectives), "dot", str(replay.root / "report.dot"))

        if GOLDEN_DIR.exists():
            shutil.rmtree(GOLDEN_DIR)
        GOLDEN_DIR.mkdir(parents=True)
        for name in (
            "hierarchy.json",
            "hierarchy_perspectives.json",
            "consensus.tsv",
            "metrics.json",
            "metrics.txt",
            "report.md",
            "report.dot",
        ):
            shutil.copyfile(replay.root / name, GOLDEN_DIR / name)
        print(f"froze goldens under {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
