"""Fixture: violations outside every pass's scope (nothing may fire)."""
import time


def stamp():
    return time.time()
