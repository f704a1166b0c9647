"""Downlink system simulator for an aerial massive MIMO base station with a
sectorized cylindrical array: beam-domain channel statistics, grid-based user
clustering, resource block assignment and QoS-first power allocation."""

__version__ = "0.1.0"
