"""Online scheduler-as-a-service front-end.

The batch pipeline answers "what would this trace have done"; this
package serves the same engine to live clients.  Jobs stream in over a
newline-delimited-JSON protocol (:mod:`repro.serve.protocol`), pass
weighted fair-share admission control with bounded queues
(:mod:`repro.serve.admission`), and drive the steppable simulator
through its arrival watermark (:mod:`repro.serve.engine`).  An asyncio
TCP/unix-socket server (:mod:`repro.serve.service`), blocking clients
(:mod:`repro.serve.client`) and a deterministic replay/load harness
(:mod:`repro.serve.load`) complete the loop.

A trace replayed through the service produces a final report
byte-identical to the batch simulator run of the same workload — the
equivalence the acceptance suite in ``tests/serve`` pins.
"""

from __future__ import annotations

from repro.serve.admission import FairShareAdmission, TenantQueue
from repro.serve.client import InprocClient, SocketClient, connect
from repro.serve.engine import ServeEngine
from repro.serve.load import LoadReport, run_load
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    MAX_RESPONSE_BYTES,
    decode_line,
    encode,
    error_response,
    validate_request,
)
from repro.serve.service import SchedulerService

__all__ = [
    "FairShareAdmission",
    "TenantQueue",
    "InprocClient",
    "SocketClient",
    "connect",
    "ServeEngine",
    "LoadReport",
    "run_load",
    "MAX_LINE_BYTES",
    "MAX_RESPONSE_BYTES",
    "decode_line",
    "encode",
    "error_response",
    "validate_request",
    "SchedulerService",
]
