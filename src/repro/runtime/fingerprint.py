"""Canonical SHA-256 fingerprinting of simulation inputs.

Both durable-state layers of the runtime key their artifacts by content
identity: the campaign checkpoint manifest proves a directory belongs to
the campaign being resumed, and the service result cache proves a cached
waveform slice answers the job being submitted.  Both must agree on what
"the same simulation" means — same circuit structure and delays, same
stimuli, same slot plan, same *semantic* engine settings, same kernel
table and variation model — so the canonicalization lives here, in one
place, and the two layers compose their keys from the same feeders.

Purely *operational* knobs (chunk size, worker count, memory budget,
batching policy, compute backend) are deliberately excluded everywhere:
they never change results, so they must never split a cache or reject a
resume.

Every payload is framed as ``tag + 8-byte little-endian length + bytes``
before hashing, so adjacent fields cannot alias (``"ab" + "c"`` vs
``"a" + "bc"``) and a reordered feed changes the digest.

**Pay per job only for per-job bytes.**  A service hashes the same
compiled circuit on every submit, so the state after
:func:`feed_compiled` — the leading field of every composed identity —
is hashed once per live compiled object and *forked*
(:meth:`Fingerprinter.fork`, SHA-256 ``copy()``) per digest; the
stimulus-free compatibility state (compiled ‖ semantic config ‖ kernel
table ‖ variation) is memoized the same way per live object tuple.
Both memos key on object identity through weak references: a compiled
circuit, kernel table or variation model is treated as immutable once
fingerprinted (derive a variant with ``copy.copy`` / ``replace`` — a new
object is a new identity and hashes afresh), and an entry dies with its
objects.  Digests are byte-identical to hashing everything per call.

**Which identities reach disk.**  :func:`campaign_fingerprint` (checkpoint
manifests), :func:`characterization_fingerprint` (coefficient cache
files) and the digests other modules compose from the ``feed_*``
functions are stored, so their feed order is frozen and their digests
are pinned by tests.  :func:`compatibility_fingerprint` and
:func:`circuit_fingerprint` cross a process boundary (shard group and
circuit keys) and stay pinned with them.  :func:`job_fingerprint` never
leaves the process — it keys the result cache and names a
:class:`~repro.service.jobs.JobHandle` — so it is free to be the cheap
composition: a fork of the memoized compatibility state followed by
the job's stimuli and plan, a few hundred bytes per submit and never
the kernel table (tens of kilobytes that the frozen campaign
order hashes *after* the stimuli, where no prefix memo can reach them).
It is sensitive to exactly the fields the campaign digest is, fed in
another order; treat it as opaque — it equals no campaign digest and no
job digest of an earlier release.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Fingerprinter",
    "campaign_fingerprint",
    "characterization_fingerprint",
    "circuit_fingerprint",
    "compatibility_fingerprint",
    "job_fingerprint",
    "job_identity",
]


class Fingerprinter:
    """Incremental SHA-256 over tagged, length-framed payloads."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def fork(self) -> "Fingerprinter":
        """An independent fingerprinter continuing from this state."""
        forked = Fingerprinter.__new__(Fingerprinter)
        forked._digest = self._digest.copy()
        return forked

    def feed(self, tag: str, payload: bytes) -> None:
        # The frame header in one update: the same bytes as two.
        self._digest.update(tag.encode("utf-8")
                            + len(payload).to_bytes(8, "little"))
        self._digest.update(payload)

    def feed_text(self, tag: str, text: str) -> None:
        self.feed(tag, text.encode("utf-8"))

    def feed_array(self, tag: str, array: np.ndarray) -> None:
        self.feed(tag, np.ascontiguousarray(array).tobytes())

    def feed_json(self, tag: str, obj) -> None:
        self.feed(tag, json.dumps(obj, sort_keys=True).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


# -- component feeders -------------------------------------------------------------
#
# Field names and feed order are part of the on-disk checkpoint contract
# (the manifest stores the composed digest): changing either invalidates
# every existing campaign directory, so extend by *appending* new tagged
# fields only.


def feed_compiled(fp: Fingerprinter, compiled) -> None:
    """Circuit structure and nominal delays of a compiled circuit."""
    fp.feed_text("circuit", compiled.circuit.name)
    fp.feed_text("inputs", "\0".join(compiled.circuit.inputs))
    fp.feed_text("outputs", "\0".join(compiled.circuit.outputs))
    fp.feed_array("gate_types", compiled.gate_type_ids)
    fp.feed_array("gate_inputs", compiled.gate_inputs)
    fp.feed_array("delays", compiled.nominal_delays)


def feed_stimuli(fp: Fingerprinter, pairs: Sequence) -> None:
    """The ``(P, W)`` uint8 stimulus stacks, as the rows' bytes joined
    (a pair's vectors are 1-D uint8, so this is the stack's buffer)."""
    fp.feed("v1", b"".join([pair.v1.tobytes() for pair in pairs]))
    fp.feed("v2", b"".join([pair.v2.tobytes() for pair in pairs]))


def feed_plan(fp: Fingerprinter, plan) -> None:
    fp.feed("plan_patterns", plan.pattern_indices.tobytes())
    fp.feed("plan_voltages", plan.voltages.tobytes())


def _semantic_key(config) -> tuple:
    """Only the semantic engine settings — the ones that change
    waveforms: ``(pulse_filtering, record_all_nets)``."""
    return config.pulse_filtering, config.record_all_nets


def feed_config(fp: Fingerprinter, config) -> None:
    pulse_filtering, record_all_nets = _semantic_key(config)
    fp.feed_json("config", {"pulse_filtering": pulse_filtering,
                            "record_all_nets": record_all_nets})


def feed_kernel_table(fp: Fingerprinter, kernel_table=None) -> None:
    if kernel_table is None:
        fp.feed("kernels", b"static")
    else:
        fp.feed_array("kernels", kernel_table.coefficients)
        fp.feed_text("kernel_names", "\0".join(kernel_table.type_names))


def feed_variation(fp: Fingerprinter, variation=None) -> None:
    if variation is None:
        fp.feed("variation", b"none")
    else:
        payload = {
            "sigma": variation.sigma,
            "seed": variation.seed,
            "distribution": variation.distribution,
            "group_size": variation.group_size,
        }
        # State-dependent statistical timing: the voltage binding is part
        # of the identity (same noise stream, different spread).  Plain
        # ProcessVariation keeps the legacy payload unchanged.
        sensitivity = getattr(variation, "voltage_sensitivity", None)
        if sensitivity is not None:
            payload["voltage_sensitivity"] = sensitivity
            payload["v_ref"] = variation.v_ref
            payload["slot_voltages"] = list(variation.slot_voltages)
        fp.feed_json("variation", payload)


# -- identity memos ----------------------------------------------------------------


def _no_object() -> None:
    """Stands in for the weak reference of a ``None`` member."""


class _IdentityMemo:
    """Values built once per tuple of live objects, keyed by identity.

    ``objects`` may hold ``None``; every other member is held through a
    weak reference whose death drops the entry, and a lookup re-checks
    the references, so a recycled ``id()`` can never serve another
    object's value.  Unlocked on purpose: racing builders store equal
    values, and the stored values are only ever read (forked).
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[tuple, object]] = {}

    def lookup(self, objects: tuple, extra, build: Callable[[], object]):
        key = (tuple(map(id, objects)), extra)
        entry = self._entries.get(key)
        if entry is not None:
            for ref, obj in zip(entry[0], objects):
                if ref() is not obj:
                    break
            else:
                return entry[1]
        value = build()

        def drop(_ref, entries=self._entries, key=key) -> None:
            entries.pop(key, None)

        refs = tuple(_no_object if obj is None else weakref.ref(obj, drop)
                     for obj in objects)
        self._entries[key] = (refs, value)
        return value


_COMPILED_PREFIXES = _IdentityMemo()
_COMPATIBILITY_STATES = _IdentityMemo()


def _compiled_prefix(compiled) -> Fingerprinter:
    """A fork of the state after ``feed_compiled(compiled)``."""

    def build() -> Fingerprinter:
        fp = Fingerprinter()
        feed_compiled(fp, compiled)
        return fp

    return _COMPILED_PREFIXES.lookup((compiled,), None, build).fork()


def _compatibility_state(compiled, config, kernel_table,
                         variation) -> Tuple[Fingerprinter, str]:
    """The stimulus-free state — compiled ‖ semantic config ‖ kernel
    table ‖ variation — and its digest, hashed once per live object
    tuple.  The state is shared: fork it before feeding."""

    def build() -> Tuple[Fingerprinter, str]:
        fp = _compiled_prefix(compiled)
        feed_config(fp, config)
        feed_kernel_table(fp, kernel_table)
        feed_variation(fp, variation)
        return fp, fp.hexdigest()

    return _COMPATIBILITY_STATES.lookup(
        (compiled, kernel_table, variation), _semantic_key(config), build)


# -- composed identities -----------------------------------------------------------


def campaign_fingerprint(
    compiled,
    pairs: Sequence,
    plan,
    config,
    kernel_table=None,
    variation=None,
) -> str:
    """SHA-256 identity of a campaign's inputs.

    Two invocations get the same fingerprint exactly when they would
    produce bit-identical waveforms.  This is the digest stored in
    checkpoint manifests (the feed order is therefore frozen — see the
    module docstring).
    """
    fp = _compiled_prefix(compiled)
    feed_stimuli(fp, pairs)
    feed_plan(fp, plan)
    feed_config(fp, config)
    feed_kernel_table(fp, kernel_table)
    feed_variation(fp, variation)
    return fp.hexdigest()


def circuit_fingerprint(compiled) -> str:
    """Identity of a compiled circuit alone (the service circuit key)."""
    return _compiled_prefix(compiled).hexdigest()


def feed_cell(fp: Fingerprinter, cell) -> None:
    """Everything about a cell that shapes its delay surfaces."""
    fp.feed_json("cell", {
        "name": cell.name,
        "family": cell.family,
        "strength": cell.strength,
        "parasitic": cell.parasitic,
        "output": cell.output,
        "pins": [
            {
                "name": pin.name,
                "index": pin.index,
                "input_cap": pin.input_cap,
                "effort": pin.effort,
                "parasitic_weight": pin.parasitic_weight,
            }
            for pin in sorted(cell.pins, key=lambda p: p.index)
        ],
    })


def feed_corner(fp: Fingerprinter, corner) -> None:
    """Process-corner identity: all four α-power parameter sets."""
    fp.feed_json("corner", {
        "name": corner.name,
        "coupling": corner.coupling,
        "noise": corner.noise,
        "alpha_power": {
            edge: {"k": params.k, "vth": params.vth, "alpha": params.alpha}
            for edge, params in (
                ("rise_load", corner.rise_load),
                ("fall_load", corner.fall_load),
                ("rise_par", corner.rise_par),
                ("fall_par", corner.fall_par),
            )
        },
    })


def feed_space(fp: Fingerprinter, space) -> None:
    """Parameter-space bounds and nominal point (the normalizers)."""
    fp.feed_json("space", {
        "v_min": space.v_min,
        "v_max": space.v_max,
        "c_min": space.c_min,
        "c_max": space.c_max,
        "v_nom": space.v_nom,
    })


def characterization_fingerprint(cell, corner, space, flow: dict) -> str:
    """Coefficient-cache key for one cell's characterization.

    Two invocations get the same digest exactly when they would fit the
    same coefficient sets: same cell geometry, same process corner, same
    parameter space and the same flow settings (``flow`` is the JSON-able
    mode/order/budget bundle built by ``characterize_library``).  Purely
    operational knobs — worker count, cache directory — are excluded, per
    the module contract.
    """
    fp = Fingerprinter()
    feed_cell(fp, cell)
    feed_corner(fp, corner)
    feed_space(fp, space)
    fp.feed_json("charz_flow", flow)
    return fp.hexdigest()


def compatibility_fingerprint(
    compiled,
    config,
    kernel_table=None,
    variation=None,
    static_voltages: Optional[np.ndarray] = None,
) -> str:
    """Coalescing key: jobs with equal keys may share one slot plane.

    Everything but the stimuli and the plan — circuit, semantic config,
    kernel table and variation model.  In static-delay mode the distinct
    voltages are included too, because the engine (correctly) refuses to
    differentiate operating points without a kernel table: coalescing a
    0.7 V job with a 0.8 V one would turn two valid static jobs into one
    invalid plane.
    """

    state, digest = _compatibility_state(compiled, config, kernel_table,
                                         variation)
    return _compat_key(state, digest, kernel_table, static_voltages)


def _compat_key(state: Fingerprinter, digest: str, kernel_table,
                static_voltages) -> str:
    """The compatibility key from the memoized stimulus-free ``state``
    and its ``digest``: in static mode the distinct voltages are fed on
    a fork.  The one definition behind :func:`compatibility_fingerprint`
    and :func:`job_identity`."""
    if kernel_table is None and static_voltages is not None:
        fp = state.fork()
        fp.feed_array("static_voltages", np.unique(static_voltages))
        return fp.hexdigest()
    return digest


def job_fingerprint(
    compiled,
    pairs: Sequence,
    plan,
    config,
    kernel_table=None,
    variation=None,
    first_slot: int = 0,
) -> str:
    """In-memory identity of one service job (result-cache key).

    Equal exactly when :func:`campaign_fingerprint` is equal — the same
    six fields decide both — but composed so a submit hashes only its
    own bytes: the memoized compatibility state, forked, then stimuli
    and plan.  Payloads stay far below the size at which ``hashlib``
    releases the GIL, so a submitting thread never queues behind a busy
    worker to get it back.  Not a stored format (see the module
    docstring) and never equal to a compatibility digest of the same
    state: at least four framed fields follow the fork.

    A nonzero ``first_slot`` (where the job's slots sit in the caller's
    plane; Monte-Carlo die factors follow it) is fed last, so every
    ``first_slot=0`` digest is the one it was before the field existed.
    """
    return job_identity(compiled, pairs, plan, config, kernel_table,
                        variation, first_slot)[0]


def job_identity(
    compiled,
    pairs: Sequence,
    plan,
    config,
    kernel_table=None,
    variation=None,
    first_slot: int = 0,
) -> Tuple[str, str]:
    """``(job_fingerprint, compatibility key)`` of one service job.

    Both from one memo lookup: the key is
    ``compatibility_fingerprint(..., static_voltages=plan.voltages)``,
    and the job digest forks the same state.
    """
    state, digest = _compatibility_state(compiled, config, kernel_table,
                                         variation)
    compat_key = _compat_key(state, digest, kernel_table, plan.voltages)
    fp = state.fork()
    feed_stimuli(fp, pairs)
    feed_plan(fp, plan)
    if first_slot:
        fp.feed_text("first_slot", str(first_slot))
    return fp.hexdigest(), compat_key
