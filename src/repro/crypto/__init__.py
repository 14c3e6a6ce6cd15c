"""Cryptographic substrate for private independence auditing."""

from repro.crypto.commutative import CommutativeKey, SharedGroup, hash_to_group
from repro.crypto.fastexp import (
    batch_pow,
    digit_table,
    multi_exp,
)
from repro.crypto.hashing import HashFamily
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.permutation import Permuter
from repro.crypto.primes import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    safe_prime,
)

__all__ = [
    "CommutativeKey",
    "HashFamily",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "Permuter",
    "SharedGroup",
    "batch_pow",
    "digit_table",
    "generate_keypair",
    "multi_exp",
    "generate_prime",
    "generate_safe_prime",
    "hash_to_group",
    "is_probable_prime",
    "safe_prime",
]
