"""Corpus-grounded claim deconstruction: aspect hierarchies with perspectives."""
