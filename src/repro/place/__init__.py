"""TPlace: simulated-annealing placement of packed designs."""

from repro.place.tplace import Placement, place_design

__all__ = ["Placement", "place_design"]
