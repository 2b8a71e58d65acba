"""Uniform result record for theorem checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInput

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over a described corpus.

    The witness pinpoints where a square or property failed and is nonempty
    exactly when the status is ``fail``.
    """

    check_id: str
    corpus: str
    status: str
    witness: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, NOT_APPLICABLE):
            raise InvalidInput(f"unknown report status {self.status!r}")
        if (self.status == FAIL) != bool(self.witness):
            raise InvalidInput("witness must be present exactly on failure")

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        out = {
            "id": self.check_id,
            "corpus": self.corpus,
            "status": self.status,
            "witness": self.witness,
        }
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", NOT_APPLICABLE: "N/A "}[self.status]
        extra = f" witness: {self.witness}" if self.witness else ""
        note = f" ({self.note})" if self.note else ""
        return f"[{tag}] {self.check_id} [{self.corpus}]{note}{extra}"


def not_applicable(check_id: str, corpus: str, note: str = "") -> CheckReport:
    return CheckReport(check_id, corpus, NOT_APPLICABLE, note=note)


def verdict(
    check_id: str, corpus: str, witnesses: Iterable[str | tuple[str, str]], note: str = ""
) -> CheckReport:
    """FAIL with the first non-empty witness, or PASS when there is none.

    A witness is its text, or a pair ``(fail_id, text)`` whose FAIL report is
    named ``fail_id`` rather than ``check_id``, for a claim made of sub-claims.
    ``witnesses`` is consumed lazily and dropped at the first failure: a
    generator that yields a witness is never resumed, so it need not stop.
    """
    for witness in witnesses:
        fail_id, text = witness if isinstance(witness, tuple) else (check_id, witness)
        if text:
            return CheckReport(fail_id, corpus, FAIL, witness=text)
    return CheckReport(check_id, corpus, PASS, note=note)
