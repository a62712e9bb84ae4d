"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of every qdeny layer module
(and a few named methods) and rebinds each wrapper in every module
namespace that holds the original, so `from .channel import transmit` in
`bb84` is traced as well as `channel.transmit` itself. Spans are folded
into per-name totals as they close: call count and self time, where self
time is a span's duration minus the time covered by its child spans.
Keeping totals rather than single spans bounds memory on workloads that
open millions of spans. Wrappers draw no randomness and never change a
function's arguments or result, so traced and untraced runs return the
same values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "qcore", "gf2", "channel", "bb84", "denial", "ue", "dcqke", "distill", "games")

# Methods traced besides the module-level public functions.
METHODS = {
    "rng": ("RandomStream.substream", "CounterModePrng.sample_distinct", "CounterModePrng.words"),
    "denial": ("NaiveBb84DenialProtocol.fake",),
    "dcqke": ("SeedSearchWarden.decide", "SeedSearchWarden.__init__"),
}


def _count_words(counters, result):
    counters["rng.keystream_words"] += len(result)


def _count_used(counters, result):
    counters["rng.sample_distinct.n_used"] += len(result)


def _count_decoys(counters, result):
    counters["denial.decoys"] += len(result[1])


def _count_ue_accept(counters, result):
    counters["ue.accepted"] += int(result.accepted)


def _count_ebits(counters, result):
    counters["distill.ebits"] += int(result is not None)


# Counters read off results at the same boundaries, for the waste ratios.
RESULT_HOOKS = {
    "rng.CounterModePrng.words": _count_words,
    "rng.CounterModePrng.sample_distinct": _count_used,
    "denial.eve_decoy_attack": _count_decoys,
    "ue.qke_from_ue": _count_ue_accept,
    "distill.procrustean_filter": _count_ebits,
}


class Tracer:
    """Span totals keyed by `<layer>.<function>`."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._child_time = [0.0]  # one slot per open span, plus the root

    def wrap(self, name: str, fn, on_result=None):
        """`fn` wrapped in a span named `name`."""
        clock = time.perf_counter
        stack = self._child_time
        calls, self_s, counters = self.calls, self.self_s, self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
            if on_result is not None:
                on_result(counters, result)
            return result

        return span

    def install(self) -> None:
        """Trace every layer, in every qdeny namespace that binds a traced function."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qdeny.{layer}")
            for attr, obj in list(vars(module).items()):
                if _is_public_function(attr, obj, module):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, RESULT_HOOKS.get(name))
            for qualname in METHODS.get(layer, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                name = f"{layer}.{qualname}"
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], RESULT_HOOKS.get(name)))
        for module in _qdeny_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])


def _is_public_function(attr: str, obj, module) -> bool:
    return (
        not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


def _qdeny_modules():
    return [m for n, m in list(sys.modules.items()) if n == "qdeny" or n.startswith("qdeny.")]


# Traced functions reported per layer, with the workloads that must call them.
BB84, DENY, WEAK, UE = "bb84-long", "deny-short", "weak-warden", "ue-teleport"
REPORTED = {
    "rng.RandomStream.substream": (DENY,),
    "rng.CounterModePrng.sample_distinct": (WEAK,),
    "rng.CounterModePrng.words": (WEAK,),
    "qcore.measure": (BB84,),
    "qcore.prepare_bb84": (BB84,),
    "qcore.measure_subsystem": (UE,),
    "qcore.apply_unitary": (UE,),
    "qcore.fidelity": (UE,),
    "gf2.decode_to_codeword": (BB84,),
    "gf2.key_from_coset": (BB84,),
    "gf2.sample_codeword": (BB84,),
    "gf2.bits": (BB84,),
    "gf2.encode_ue_codeword": (UE,),
    "gf2.syndrome": (UE,),
    "gf2.coset_leader": (UE,),
    "gf2.rref": (UE,),
    "channel.transmit": (BB84, DENY),
    "channel.warden_observe": (WEAK,),
    "channel.weak_schedule_table": (WEAK,),
    "channel.count_distributions": (WEAK,),
    "bb84.run_bb84": (BB84, DENY),
    "bb84.run_session": (BB84, DENY),
    "bb84.extract_key": (BB84, DENY),
    "bb84.sift": (BB84, DENY),
    "denial.eve_decoy_attack": (DENY,),
    "denial.judge_check": (DENY,),
    "denial.NaiveBb84DenialProtocol.fake": (DENY,),
    "ue.qke_from_ue": (UE,),
    "ue.ue_decrypt": (UE,),
    "ue.mac_tag": (UE,),
    "dcqke.SeedSearchWarden.decide": (WEAK,),
    "dcqke.SeedSearchWarden.__init__": (WEAK,),
    "dcqke.run_dc_qke": (WEAK,),
    "distill.distill_batch": (UE,),
    "distill.procrustean_filter": (UE,),
    "distill.teleport": (UE,),
    "distill.verify_ebits": (UE,),
    "games.run_experiment": (DENY, WEAK),
    "games.decide": (DENY, WEAK),
}

# Waste ratios and counts: name -> (numerator, denominator span or None, unit).
DERIVED = {
    "rng.keystream_words": ("rng.keystream_words", None, "count"),
    "rng.sample_distinct.accept_ratio": ("rng.sample_distinct.n_used", "rng.keystream_words", "ratio"),
    "bb84.attempts_per_session": ("bb84.run_bb84", "bb84.run_session", "attempts/session"),
    "denial.decoys_per_session": ("denial.decoys", "denial.eve_decoy_attack", "decoys/session"),
    "ue.accept_ratio": ("ue.accepted", "ue.qke_from_ue", "ratio"),
    "distill.filter_success_ratio": ("distill.ebits", "distill.procrustean_filter", "ratio"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; undefined ratios read 0."""
    out: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        if name != "games.decide":
            out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    counts = {**tracer.counters, **tracer.calls}
    for name, (num, den, unit) in DERIVED.items():
        if den is None:
            out[name] = (counts.get(num, 0), unit)
        else:
            d = counts.get(den, 0)
            out[name] = (counts.get(num, 0) / d if d else 0.0, unit)
    return out


def missing_calls(tracer: Tracer, workload: str) -> list[str]:
    """Reported spans that the named workload should call but did not."""
    return [name for name, named in REPORTED.items() if workload in named and not tracer.calls.get(name)]
