"""Waveform data structures: switching histories with full glitch support."""

from repro.waveform.waveform import Waveform
from repro.waveform.inertial import cancel_monotonic, filter_inertial
from repro.waveform.plane import WaveformPlane
from repro.waveform.vcd import dump_vcd, result_to_vcd

__all__ = ["Waveform", "cancel_monotonic", "filter_inertial",
           "WaveformPlane", "dump_vcd", "result_to_vcd"]
