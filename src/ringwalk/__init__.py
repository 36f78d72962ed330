"""Coined quantum walks on rings, compiled to bounded-rank native gate
sets with published effective (noisy) gate matrices and scalar SPAM and
waiting-error channels. Deterministic throughout."""

__version__ = "0.1.0"
