"""One op: one CLI command on one generated spec document, and its check.

An op runs through the CLI entry point `cli.run(RunConfig(...))` in this
process; the canonical JSON the command writes to stdout is captured.  An op
fails when its exit status is not 0 (so `WindowExhausted` and
`CoverageGap`/`BandViolation` count: the user asked for a certificate and
got none), when its payload does not parse or lacks `schema`, or when a
certificate in it fails `recheck_witness`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, ContextManager


@dataclass(frozen=True)
class Op:
    """A CLI invocation: command, spec document file, `--set` overrides,
    `--seed` and `--workers`.  `family` is the generator family, for reports."""

    command: str
    spec_path: str
    family: str
    overrides: tuple[tuple[str, str], ...] = ()
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class OpResult:
    status: int | str        # exit status, or the name of an uncaught exception
    output: str              # everything the command wrote to stdout
    seconds: float
    failed: bool
    reason: str              # why the op failed; "" when it did not
    malformed: bool          # payload unparseable or a certificate re-check failed


def certificates_in(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Certificate documents carried by a payload, in payload order."""
    certs = list(payload.get("certificates", ()))
    if isinstance(payload.get("certificate"), dict):
        certs.append(payload["certificate"])
    return certs


def classify(bf: Any, status: int | str, output: str) -> tuple[bool, str, bool]:
    """(failed, reason, malformed) for an op's exit status and stdout."""
    try:
        payload = json.loads(output)
    except ValueError:
        payload = None
    if not isinstance(payload, dict) or "schema" not in payload:
        if status != 0:
            return True, f"exit {status}", False
        return True, "payload unparseable or without schema", True
    if status != 0:
        return True, f"exit {status}", False
    for doc in certificates_in(payload):
        try:
            ok = bf.recheck_witness(bf.BlenderCertificate.from_json_dict(doc))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return True, f"certificate unreadable: {exc!r}", True
        if not ok:
            return True, "certificate fails recheck_witness", True
    return False, "", False


def run_op(bf: Any, cli: Any, op: Op, clock: Callable[[], float],
           around: Callable[[], ContextManager] = contextlib.nullcontext) -> OpResult:
    """Run one op and time it with `clock` (seconds); `around` wraps the CLI
    call, as the traced pass's op span does.  The check runs after timing."""
    config = cli.RunConfig(
        command=op.command,
        spec_path=op.spec_path,
        overrides=dict(op.overrides),
        seed=op.seed,
        workers=op.workers,
    )
    buf = io.StringIO()
    start = clock()
    try:
        with around(), contextlib.redirect_stdout(buf):
            status: int | str = cli.run(config)
    except Exception as exc:  # a crash in the program is a failed op, not a failed benchmark
        status = type(exc).__name__
    seconds = clock() - start
    output = buf.getvalue()
    failed, reason, malformed = classify(bf, status, output)
    return OpResult(status, output, seconds, failed, reason, malformed)
