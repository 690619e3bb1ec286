"""Wire format of the campaign service.

Everything that crosses the HTTP boundary goes through this module: strict
JSON decoding of submitted :class:`~repro.campaign.jobs.CampaignSpec` and
:class:`~repro.campaign.jobs.JobSpec` payloads, and the rendering of
:class:`~repro.reporting.ResultTable` reports as JSON, JSONL or the CLI's
plain-text layout.

The decoders are deliberately unforgiving — unknown fields are a 400, not a
silently ignored typo — because a campaign spec is a *content address*: two
submissions must either hash identically or fail loudly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Tuple

from repro.campaign.jobs import CampaignSpec, JobSpec
from repro.campaign.scheduler import ShardPlan
from repro.campaign.store import RECORD_FIELDS
from repro.cluster.registry import ROLES
from repro.obs.trace import TraceContext, context_from_wire
from repro.reporting import ResultTable
from repro.stencils.library import (
    DEFAULT_2D_GRID,
    DEFAULT_3D_GRID,
    DEFAULT_TIME_STEPS,
    get_benchmark,
)

#: Media types used by the service responses.
JSON_TYPE = "application/json"
JSONL_TYPE = "application/jsonl"
TEXT_TYPE = "text/plain; charset=utf-8"

class WireError(ValueError):
    """A request that cannot be served; carries the HTTP status to send."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def decode_json(body: bytes) -> object:
    """Parse a request body as JSON, mapping failures to HTTP 400."""
    if not body:
        raise WireError("request body must be a JSON object")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"invalid JSON body: {error}") from None


def _campaign_spec_from_json(data: object) -> CampaignSpec:
    """Decode one campaign-spec mapping, mapping failures to HTTP 400.

    Shared by every submit route (direct and assignment envelope) so the
    two paths can never drift in what they accept — a drift would break
    content-address stability across routes.
    """
    try:
        return CampaignSpec.from_json(data)  # type: ignore[arg-type]
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args and isinstance(error.args[0], str) else error
        raise WireError(f"invalid campaign spec: {message}") from None


def _pop_trace(data: object) -> Tuple[object, Optional[TraceContext]]:
    """Split the optional ``"trace"`` envelope field off a request mapping.

    The trace context rides the envelope *next to* the content-addressed
    payload, never inside it: stripping it here (before any spec decoding)
    is what keeps campaign ids and job keys independent of tracing.  The
    field itself is strict — only ``trace_id``/``span_id``, no timestamps
    (see :func:`repro.obs.trace.context_from_wire`) — and a malformed one
    is a 400 like any other envelope error.
    """
    if not isinstance(data, Mapping) or "trace" not in data:
        return data, None
    try:
        trace = context_from_wire(data["trace"])
    except ValueError as error:
        raise WireError(str(error)) from None
    return {k: v for k, v in data.items() if k != "trace"}, trace


def decode_submit(body: bytes) -> Tuple[CampaignSpec, Optional[TraceContext]]:
    """Decode a submitted campaign spec plus its optional trace envelope."""
    data, trace = _pop_trace(decode_json(body))
    return _campaign_spec_from_json(data), trace


def decode_assignment(
    body: bytes,
) -> Tuple[CampaignSpec, ShardPlan, Optional[TraceContext]]:
    """Decode a coordinator shard assignment: a spec plus its shard plan.

    The envelope is ``{"spec": {...}, "shards": N, "shard_indices": [...]}``
    with an optional ``"trace"`` context (the coordinator's fan-out span).
    Both halves validate here, at the wire — a malformed shard plan (index
    out of range, zero shards, non-integer fields) is a structured 400, not
    a 500 thrown later out of the worker loop.
    """
    data, trace = _pop_trace(decode_json(body))
    if not isinstance(data, Mapping):
        raise WireError("assignment must be a JSON object")
    unknown = sorted(set(data) - {"spec", "shards", "shard_indices"})
    if unknown:
        raise WireError(f"unknown assignment field(s): {', '.join(unknown)}")
    if "spec" not in data:
        raise WireError("assignment is missing its campaign 'spec'")
    spec = _campaign_spec_from_json(data["spec"])
    try:
        plan = ShardPlan.from_json(
            {k: v for k, v in data.items() if k in ("shards", "shard_indices")}
        )
    except (TypeError, ValueError) as error:
        message = error.args[0] if error.args and isinstance(error.args[0], str) else error
        raise WireError(f"invalid shard plan: {message}") from None
    return spec, plan, trace


def decode_result_records(
    body: bytes,
) -> Tuple[List[Dict[str, object]], Optional[TraceContext]]:
    """Decode a ``POST /results/commit`` batch: one JSON record per line.

    Every record must carry exactly the store's :data:`RECORD_FIELDS` — in
    particular **no** ``created_at``: commit timestamps are stamped by the
    receiving store, never trusted from the sender (same clock policy as
    heartbeats).  A record may additionally carry a ``"trace"`` envelope
    (the sending worker's run span); it is stripped here — trace context
    never reaches the store rows, so exports stay byte-identical — and the
    first one found is returned for the receiver's commit span.  Malformed
    batches are a 400 with the offending line.
    """
    if not body:
        raise WireError("commit body must be JSONL (one result record per line)")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireError(f"commit body is not UTF-8: {error}") from None
    records: List[Dict[str, object]] = []
    trace: Optional[TraceContext] = None
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise WireError(f"commit line {number} is not JSON: {error}") from None
        if not isinstance(record, Mapping):
            raise WireError(f"commit line {number} must be a JSON object")
        if "trace" in record:
            record, line_trace = _pop_trace(record)
            if trace is None:
                trace = line_trace
        missing = sorted(set(RECORD_FIELDS) - set(record))
        if missing:
            raise WireError(
                f"commit line {number} is missing field(s): {', '.join(missing)}"
            )
        unknown = sorted(set(record) - set(RECORD_FIELDS))
        if unknown:
            raise WireError(
                f"commit line {number} has unknown field(s): {', '.join(unknown)}"
            )
        records.append(dict(record))
    if not records:
        raise WireError("commit body holds no result records")
    return records, trace


#: Envelope fields of the synchronous fast-path requests.  The config fields
#: (``bT``/``bS``/``hS``/``regs``) become job-spec params *only when sent*,
#: so a default request hashes to the same content address as the campaign
#: scheduler's default predict job — fast path and store agree on keys.
_PREDICT_FIELDS = {"pattern", "gpu", "dtype", "interior", "time_steps", "bT", "bS", "hS", "regs"}
_TUNE_FIELDS = {"pattern", "gpu", "dtype", "interior", "time_steps", "top_k"}

_DEFAULT_GRIDS = {2: DEFAULT_2D_GRID, 3: DEFAULT_3D_GRID}


def _decode_int(data: Mapping[str, object], name: str) -> int:
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"field {name!r} must be an integer")
    if value < 1:
        raise WireError(f"field {name!r} must be >= 1, got {value}")
    return value


def _interactive_spec(body: bytes, kind: str, allowed: set) -> Tuple[Mapping[str, object], JobSpec, Optional[TraceContext]]:
    """Shared decode of the ``/predict`` and ``/tune`` envelopes.

    Returns the stripped request mapping (for kind-specific params), the
    partially built spec fields as a :class:`JobSpec` with empty params,
    and the optional trace context.
    """
    data, trace = _pop_trace(decode_json(body))
    if not isinstance(data, Mapping):
        raise WireError(f"{kind} request must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise WireError(f"unknown {kind} request field(s): {', '.join(unknown)}")
    if "pattern" not in data:
        raise WireError(f"{kind} request is missing its 'pattern'")
    pattern = data["pattern"]
    if not isinstance(pattern, str) or not pattern:
        raise WireError("field 'pattern' must be a non-empty string")
    try:
        ndim = get_benchmark(pattern).ndim
    except KeyError as error:
        message = error.args[0] if error.args else error
        raise WireError(str(message)) from None
    dtype = data.get("dtype", "float")
    if dtype not in ("float", "double"):
        raise WireError(f"field 'dtype' must be 'float' or 'double', got {dtype!r}")
    gpu = data.get("gpu", "V100")
    if not isinstance(gpu, str) or not gpu:
        raise WireError("field 'gpu' must be a non-empty string")
    interior = data.get("interior")
    if interior is None:
        interior = _DEFAULT_GRIDS.get(ndim)
        if interior is None:
            raise WireError(
                f"stencil {pattern!r} is {ndim}-D; an explicit 'interior' is required"
            )
    elif (
        not isinstance(interior, (list, tuple))
        or len(interior) != ndim
        or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in interior)
    ):
        raise WireError(
            f"field 'interior' must be an array of {ndim} positive integers"
        )
    time_steps = _decode_int(data, "time_steps") if "time_steps" in data else DEFAULT_TIME_STEPS
    try:
        spec = JobSpec(
            kind=kind,
            pattern=pattern,
            gpu=gpu,
            dtype=dtype,
            interior=tuple(interior),
            time_steps=time_steps,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args and isinstance(error.args[0], str) else error
        raise WireError(f"invalid {kind} request: {message}") from None
    return data, spec, trace


def decode_predict_request(body: bytes) -> Tuple[JobSpec, Optional[TraceContext]]:
    """Decode a ``POST /predict`` envelope into a predict job spec.

    Omitted config fields are omitted from the spec's params too, so the
    default request keys identically to the campaign scheduler's default
    predict job (``params=()``, model-default blocking).
    """
    data, spec, trace = _interactive_spec(body, "predict", _PREDICT_FIELDS)
    params: List[Tuple[str, object]] = []
    if "bT" in data:
        params.append(("bT", _decode_int(data, "bT")))
    if "bS" in data:
        bS = data["bS"]
        if (
            not isinstance(bS, (list, tuple))
            or not bS
            or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in bS)
        ):
            raise WireError("field 'bS' must be a non-empty array of positive integers")
        params.append(("bS", tuple(bS)))
    if "hS" in data:
        params.append(("hS", _decode_int(data, "hS")))
    if "regs" in data:
        params.append(("regs", _decode_int(data, "regs")))
    if params:
        spec = JobSpec(
            kind=spec.kind,
            pattern=spec.pattern,
            gpu=spec.gpu,
            dtype=spec.dtype,
            interior=spec.interior,
            time_steps=spec.time_steps,
            params=tuple(params),
        )
    return spec, trace


def decode_tune_request(body: bytes) -> Tuple[JobSpec, Optional[TraceContext]]:
    """Decode a ``POST /tune`` envelope into a tune job spec.

    ``top_k`` always lands in the params (default 5) — exactly how the
    campaign scheduler builds its tune jobs, so the fast path and a sweep
    share content addresses.
    """
    data, spec, trace = _interactive_spec(body, "tune", _TUNE_FIELDS)
    top_k = _decode_int(data, "top_k") if "top_k" in data else 5
    spec = JobSpec(
        kind=spec.kind,
        pattern=spec.pattern,
        gpu=spec.gpu,
        dtype=spec.dtype,
        interior=spec.interior,
        time_steps=spec.time_steps,
        params=(("top_k", top_k),),
    )
    return spec, trace


def decode_status_query(body: bytes) -> List[str]:
    """Decode a ``POST /results/statuses`` body: ``{"keys": [...]}``."""
    data = decode_json(body)
    if not isinstance(data, Mapping):
        raise WireError("status query must be a JSON object")
    unknown = sorted(set(data) - {"keys"})
    if unknown:
        raise WireError(f"unknown status query field(s): {', '.join(unknown)}")
    keys = data.get("keys")
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise WireError("status query field 'keys' must be an array of strings")
    return list(keys)


#: Fields a wire registration may carry.  Deliberately no timestamps: an
#: envelope trying to smuggle ``heartbeat_at``/``started_at`` is a 400, which
#: is how the receiver-clock liveness policy is enforced at the boundary.
_MEMBER_FIELDS = {"instance_id", "host", "port", "role", "capabilities"}


def decode_member(body: bytes) -> Dict[str, object]:
    """Decode a ``POST /cluster/register`` envelope (strict, timestamp-free)."""
    data = decode_json(body)
    if not isinstance(data, Mapping):
        raise WireError("registration must be a JSON object")
    unknown = sorted(set(data) - _MEMBER_FIELDS)
    if unknown:
        raise WireError(
            f"unknown registration field(s): {', '.join(unknown)} "
            "(timestamps are receiver-stamped and must not be sent)"
        )
    for required in ("instance_id", "host", "port"):
        if required not in data:
            raise WireError(f"registration is missing {required!r}")
    instance_id = data["instance_id"]
    host = data["host"]
    if not isinstance(instance_id, str) or not instance_id:
        raise WireError("registration field 'instance_id' must be a non-empty string")
    if not isinstance(host, str) or not host:
        raise WireError("registration field 'host' must be a non-empty string")
    try:
        port = int(data["port"])  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise WireError("registration field 'port' must be an integer") from None
    role = data.get("role", "worker")
    if role not in ROLES:
        raise WireError(f"unknown cluster role {role!r}; expected one of {ROLES}")
    capabilities = data.get("capabilities", {})
    if not isinstance(capabilities, Mapping):
        raise WireError("registration field 'capabilities' must be a JSON object")
    return {
        "instance_id": instance_id,
        "host": host,
        "port": port,
        "role": role,
        "capabilities": dict(capabilities),
    }


def decode_instance_id(body: bytes) -> str:
    """Decode heartbeat/deregister envelopes: ``{"instance_id": "..."}``.

    Strict like every other decoder — a heartbeat carrying a sender
    timestamp is rejected, not ignored, so skew bugs cannot creep back in.
    """
    data = decode_json(body)
    if not isinstance(data, Mapping):
        raise WireError("envelope must be a JSON object")
    unknown = sorted(set(data) - {"instance_id"})
    if unknown:
        raise WireError(
            f"unknown field(s): {', '.join(unknown)} "
            "(heartbeats carry no timestamps; arrival is receiver-stamped)"
        )
    instance_id = data.get("instance_id")
    if not isinstance(instance_id, str) or not instance_id:
        raise WireError("field 'instance_id' must be a non-empty string")
    return instance_id


def json_body(payload: object) -> bytes:
    """Canonical JSON response body (sorted keys, trailing newline)."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def render_table(table: ResultTable, fmt: str) -> Tuple[bytes, str]:
    """Render a report table in the requested format.

    ``json`` is :meth:`ResultTable.to_payload`, ``jsonl`` is one object per
    row, and ``text`` is exactly what ``an5d campaign report`` prints.
    """
    if fmt == "json":
        return json_body(table.to_payload()), JSON_TYPE
    if fmt == "jsonl":
        body = table.to_jsonl()
        return (body + "\n" if body else "").encode("utf-8"), JSONL_TYPE
    if fmt == "text":
        return (table.to_text() + "\n").encode("utf-8"), TEXT_TYPE
    raise WireError(f"unknown report format {fmt!r}; expected json, jsonl or text")


def etag(body: bytes) -> str:
    """A strong ETag for deterministic bodies (exports never lie)."""
    return '"' + hashlib.sha256(body).hexdigest()[:16] + '"'


def spec_summary(spec: CampaignSpec) -> Dict[str, object]:
    """The spec fields echoed back in submit/status responses."""
    return {"spec": spec.to_json(), "describe": spec.describe()}
