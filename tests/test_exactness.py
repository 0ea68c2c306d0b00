"""Exactness gate: the acceptance end-to-end run against a committed reference.

``reference/exactness.json`` holds what the session's ``end_to_end`` run
(conftest.py) gave when it was written: the joint model's per-question
training losses of every epoch and its validation rankings and relevant
sets, and the rankings, relevant sets and scores of the logistic baseline
and of the hinge ranker. A change that only reorders float arithmetic (a
split product, a padded one, a fused sum) must leave every ranking and
relevant set as it was, and every loss and baseline score within ``RTOL``
relative; one that changes what is computed fails here.

A change that is meant to move these numbers rewrites the reference with
``PYTHONPATH=src python tests/write_exactness_reference.py`` and says why,
with the old and new values.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).parent / "reference" / "exactness.json"

# Largest relative difference a loss or baseline score may show. Reordered
# sums move them far less (padding the paper-size conv products moved
# paper-size losses by at most 1.1e-13); scaling Adam's learning rate by
# 1 + 1e-6 moves 2,399 of the 2,400 losses past it, by up to 3.7e-4.
RTOL = 1e-9


# The sections that hold a baseline ranker's scores.
SCORED = ("baseline", "hinge")


def _scored(predictions) -> dict:
    return {
        p.question_id: {"ranking": list(p.ranking), "relevant": list(p.relevant), "scores": p.scores}
        for p in predictions
    }


def exactness_record(run) -> dict:
    """What the reference holds of a ``train_end_to_end()`` run."""
    return {
        "joint_losses": run.history,
        "joint": {
            p.question_id: {"ranking": list(p.ranking), "relevant": list(p.relevant)}
            for p in run.joint_predictions
        },
        "baseline": _scored(run.baseline_predictions),
        "hinge": _scored(run.hinge_predictions),
    }


def dumps(record: dict) -> str:
    """``record`` as JSON, one line per epoch and per question."""
    blocks = []
    for key, value in record.items():
        if isinstance(value, dict):
            lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
            brackets = "{}"
        else:
            lines = [json.dumps(v) for v in value]
            brackets = "[]"
        body = ",\n  ".join(lines)
        blocks.append(f" {json.dumps(key)}: {brackets[0]}\n  {body}\n {brackets[1]}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _rankings(section: dict) -> dict:
    return {q: (entry["ranking"], entry["relevant"]) for q, entry in section.items()}


class TestExactness:
    def _both(self, end_to_end):
        return exactness_record(end_to_end), json.loads(REFERENCE.read_text())

    def test_rankings_and_relevant_sets_are_identical(self, end_to_end):
        got, want = self._both(end_to_end)
        for model in ("joint", *SCORED):
            assert _rankings(got[model]) == _rankings(want[model]), model

    def test_joint_losses_agree(self, end_to_end):
        got, want = self._both(end_to_end)
        assert [len(epoch) for epoch in got["joint_losses"]] == [
            len(epoch) for epoch in want["joint_losses"]
        ]
        np.testing.assert_allclose(
            np.array(got["joint_losses"]), np.array(want["joint_losses"]), rtol=RTOL, atol=0
        )

    def test_baseline_scores_agree(self, end_to_end):
        got, want = self._both(end_to_end)
        for model in SCORED:
            pairs = [
                (score, want[model][q]["scores"][a])
                for q, entry in got[model].items()
                for a, score in entry["scores"].items()
            ]
            assert len(pairs) == sum(len(e["scores"]) for e in want[model].values()), model
            np.testing.assert_allclose(*np.array(pairs).T, rtol=RTOL, atol=0, err_msg=model)

    def test_reference_reads_back_as_written(self):
        want = json.loads(REFERENCE.read_text())
        assert dumps(want) == REFERENCE.read_text()
