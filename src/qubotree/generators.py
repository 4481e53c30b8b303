"""Synthetic auto-insurance claim datasets.

Two generators with the same columns (Brand, Color, Mileage_km, HasClaim,
ClaimAmount): ``generate_df`` has a structured severity with an additive
luxury-brand and red-color premium, ``generate_datagen`` a lognormal severity
with an occasional heavy tail. Both are deterministic per (n, seed) through
the in-repo RNG.
"""

from __future__ import annotations

import numpy as np

from .datasets import ColumnSchema, Dataset
from .rng import Rng, derive_seed

BRANDS = (
    "Audi", "BMW", "Ford", "Honda", "Hyundai",
    "Kia", "Mercedes", "Nissan", "Toyota", "Volkswagen",
)
COLORS = ("Black", "Blue", "Gray", "Green", "Red", "White")
LUXURY_BRANDS = frozenset({"Audi", "BMW", "Mercedes"})

BRAND_BASE_PRICE = {
    "Audi": 40000.0, "BMW": 45000.0, "Mercedes": 50000.0,
    "Ford": 18000.0, "Honda": 16000.0, "Hyundai": 14000.0,
    "Kia": 13000.0, "Nissan": 15000.0, "Toyota": 17000.0,
    "Volkswagen": 20000.0,
}
BRAND_SEVERITY_SIGMA = {b: (0.6 if b in LUXURY_BRANDS else 0.4) for b in BRANDS}
COLOR_FACTOR = {
    "Red": 1.15, "White": 1.10, "Black": 1.0,
    "Blue": 1.0, "Gray": 0.95, "Green": 0.95,
}

_SCHEMA = (
    ColumnSchema("Brand", "categorical", BRANDS),
    ColumnSchema("Color", "categorical", COLORS),
    ColumnSchema("Mileage_km", "numeric"),
    ColumnSchema("HasClaim", "binary"),
)


def _common_draws(n: int, rng: Rng):
    brand_codes = rng.integers(len(BRANDS), n)
    color_codes = rng.integers(len(COLORS), n)
    base = np.array([BRAND_BASE_PRICE[b] for b in BRANDS])[brand_codes]
    factor = np.array([COLOR_FACTOR[c] for c in COLORS])[color_codes]
    return brand_codes, color_codes, base, factor


def _assemble(brand_codes, color_codes, mileage, has_claim, amount) -> Dataset:
    columns = {
        "Brand": np.asarray(brand_codes, dtype=np.int64),
        "Color": np.asarray(color_codes, dtype=np.int64),
        "Mileage_km": np.asarray(mileage, dtype=np.float64),
        "HasClaim": np.asarray(has_claim, dtype=np.float64),
    }
    return Dataset(_SCHEMA, columns, np.asarray(amount, dtype=np.float64), "ClaimAmount")


def generate_df(n: int, seed: int) -> Dataset:
    """Structured severity dataset.

    Gamma(2, 30000) mileage truncated at 250,000; logistic claim probability
    centered at 80,000 km with scale 20,000; severity
    0.15*Base + 0.002*Mileage + 5000 (luxury brand) + 3000 (red), times the
    color factor, plus Normal(0, 2000) noise, floored at 100. No-claim rows
    have ClaimAmount exactly 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Rng(derive_seed(seed, 0xD0F))
    brand_codes, color_codes, base, factor = _common_draws(n, rng)
    mileage = np.minimum(rng.gamma(2.0, 30000.0, n), 250_000.0)
    p = 1.0 / (1.0 + np.exp(-(mileage - 80000.0) / 20000.0))
    has_claim = rng.bernoulli(p)
    noise = rng.normal(0.0, 2000.0, n)

    luxury = np.array([1.0 if b in LUXURY_BRANDS else 0.0 for b in BRANDS])[brand_codes]
    red = np.array([1.0 if c == "Red" else 0.0 for c in COLORS])[color_codes]
    severity = 0.15 * base + 0.002 * mileage + 5000.0 * luxury + 3000.0 * red
    amount = np.where(has_claim == 1, np.maximum(100.0, severity * factor + noise), 0.0)
    return _assemble(brand_codes, color_codes, mileage, has_claim, amount)


def generate_datagen(n: int, seed: int) -> Dataset:
    """Lognormal severity dataset with a 2% heavy tail.

    LogNormal(10, 0.5) mileage truncated at 300,000; claim probability
    clipped to [0.01, 0.9]; severity combines a brand-scaled lognormal base,
    a mileage component with a uniform multiplier, and a rare lognormal tail,
    all times the color factor and floored at 50.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Rng(derive_seed(seed, 0xDA7A))
    brand_codes, color_codes, base, factor = _common_draws(n, rng)
    mileage = np.minimum(rng.lognormal(10.0, 0.5, n), 300_000.0)
    p = np.clip(0.15 + 0.000002 * mileage, 0.01, 0.9)
    has_claim = rng.bernoulli(p)

    sigma = np.array([BRAND_SEVERITY_SIGMA[b] for b in BRANDS])[brand_codes]
    basic = np.exp(rng.normal(0.0, 1.0, n) * sigma + np.log(0.1 * base))
    km = 0.001 * mileage * rng.uniform(0.5, 1.5, n)
    tail_hit = rng.uniform01(n) < 0.02
    tail = np.where(tail_hit, np.exp(rng.normal(0.0, 1.0, n) + np.log(base)), 0.0)
    amount = np.where(has_claim == 1, np.maximum(50.0, (basic + km + tail) * factor), 0.0)
    return _assemble(brand_codes, color_codes, mileage, has_claim, amount)
