"""Uniform result record for theorem checks."""

from __future__ import annotations

from dataclasses import dataclass

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


def passed(check_id: str, corpus: str, note: str = "") -> CheckReport:
    return CheckReport(check_id, corpus, PASS, note=note)


def failed(check_id: str, corpus: str, witness: str) -> CheckReport:
    return CheckReport(check_id, corpus, FAIL, witness=witness)


def not_applicable(check_id: str, corpus: str, note: str = "") -> CheckReport:
    return CheckReport(check_id, corpus, NOT_APPLICABLE, note=note)
