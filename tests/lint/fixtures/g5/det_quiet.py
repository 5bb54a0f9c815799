"""Fixture: deterministic equivalents; the determinism pass stays quiet."""
import random
import time


def seeded_rng(seed):
    generator = random.Random(seed)
    return generator.random()


def ordered(items):
    return [entry for entry in sorted(set(items))]
