"""Value pins: one SHA-256 over every Heisenberg coefficient with |mu|, |nu|
<= 5 and over every Kronecker coefficient of size <= 6.

A change meant to make the engines faster must leave every value as it
was; these hashes were computed before such changes and catch any value
that moves.  Each query is hashed as the text "lam|mu|nu|value;", with the
partitions written by str(Partition) and enumerated in partitions_of order.
The memos are cleared first, so every value is computed afresh."""

import hashlib

from heisenstab import clear_caches, heisenberg_coeff, kron_coeff
from heisenstab.partitions import partitions_of

HEISENBERG_SHA256 = "717ff096eb158eb017bdfa247edcfc4ce79be52a75ef25cafad218c63a1b0253"
KRONECKER_SHA256 = "c599b8e3a9253e4ce47e1867adc37367fa99532a333e9d11cc00732b356f5362"


def test_heisenberg_values_are_pinned():
    clear_caches()
    digest, count = hashlib.sha256(), 0
    for m in range(6):
        for n in range(6):
            for mu in partitions_of(m):
                for nu in partitions_of(n):
                    for l in range(max(m, n), m + n + 1):
                        for lam in partitions_of(l):
                            digest.update(f"{lam}|{mu}|{nu}|{heisenberg_coeff(lam, mu, nu)};".encode())
                            count += 1
    assert count == 19581
    assert digest.hexdigest() == HEISENBERG_SHA256


def test_kronecker_values_are_pinned():
    clear_caches()
    digest, count = hashlib.sha256(), 0
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    digest.update(f"{lam}|{mu}|{nu}|{kron_coeff(lam, mu, nu)};".encode())
                    count += 1
    assert count == 1836
    assert digest.hexdigest() == KRONECKER_SHA256
