"""RSA, DRBG, hybrid encryption, cipher suites."""

import ctypes.util
import hashlib
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import Drbg, CryptoError, generate_keypair, rsa
from repro.crypto.hybrid import open_sealed, seal
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_prime, is_probable_prime
from repro.crypto.suites import (
    SUITE_AES_SHA,
    SUITE_NULL_SHA,
    SUITE_PLAIN,
    SUITE_RC4_SHA,
    SUITES,
    derive_key_block,
)

KEYS = generate_keypair(768, Drbg("test-keys"))
OTHER = generate_keypair(768, Drbg("other-keys"))


# -- DRBG -----------------------------------------------------------------------


def test_drbg_deterministic():
    assert Drbg("seed").randbytes(64) == Drbg("seed").randbytes(64)
    assert Drbg("seed").randbytes(64) != Drbg("other").randbytes(64)


def test_drbg_fork_independent_streams():
    root = Drbg("root")
    a = root.fork("a")
    b = root.fork("b")
    assert a.randbytes(32) != b.randbytes(32)
    # fork labels are stable regardless of consumption order
    assert Drbg("root").fork("a").randbytes(32) == Drbg("root").fork("a").randbytes(32)


def test_drbg_accepts_int_and_bytes_seeds():
    assert Drbg(12345).randbytes(8) == Drbg(12345).randbytes(8)
    assert Drbg(b"raw").randbytes(8) == Drbg(b"raw").randbytes(8)


def test_drbg_randrange_bounds():
    rng = Drbg("ranges")
    values = [rng.randrange(5, 15) for _ in range(500)]
    assert min(values) >= 5 and max(values) < 15
    assert len(set(values)) == 10  # all values hit over 500 draws


def test_drbg_randint_inclusive():
    rng = Drbg("randint")
    values = {rng.randint(0, 3) for _ in range(200)}
    assert values == {0, 1, 2, 3}


def test_drbg_empty_range_rejected():
    with pytest.raises(ValueError):
        Drbg("x").randrange(5, 5)


def test_drbg_shuffle_is_permutation():
    rng = Drbg("shuffle")
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_drbg_choice():
    assert Drbg("c").choice([7]) == 7
    with pytest.raises(IndexError):
        Drbg("c").choice([])


def test_drbg_random_unit_interval():
    rng = Drbg("float")
    for _ in range(100):
        x = rng.random()
        assert 0.0 <= x < 1.0


# -- primality / keygen ------------------------------------------------------------


def test_small_primes_recognized():
    rng = Drbg("prime-test")
    for p in (2, 3, 5, 7, 97, 101):
        assert is_probable_prime(p, rng)
    for c in (0, 1, 4, 100, 561, 1105):  # includes Carmichael numbers
        assert not is_probable_prime(c, rng)


def test_generate_prime_has_top_bits_set():
    p = generate_prime(128, Drbg("p"))
    assert p.bit_length() == 128 and p % 2 == 1


def test_keypair_modulus_size():
    assert KEYS.public.n.bit_length() == 768
    assert KEYS.public.size_bytes == 96


def test_keygen_deterministic_from_seed():
    a = generate_keypair(512, Drbg("same"))
    b = generate_keypair(512, Drbg("same"))
    assert a.public.n == b.public.n


def test_keygen_rejects_tiny_modulus():
    with pytest.raises(CryptoError):
        generate_keypair(128, Drbg("tiny"))


# SHA-256 of "n:d:p:q" (lower-case hex) and the next 16 DRBG bytes after
# generation, captured with the pure-Python ``pow`` implementation.  A
# change to key values or to how much entropy keygen consumes fails here.
KEYGEN_KAT = {
    512: ("bcd01e72d586978487cee40c7aeb90e7e48ff2eb080c26106e0b98cc122fefa1",
          "36a3d7073553dab1c5d0d566ea1e08b6"),
    768: ("11b8b6f4c07c72b5a01155f9f35e9769f08a8d08fc6f153f1c953878b1189538",
          "d2ac143d5bf96e9fb7f81443a0995cad"),
    1024: ("e9625285ece4b39c59bb4ae1d7b1add3dfab5988efea894228e62e52fcaf783c",
           "682c69948ada0617c8f5558f0fc1a741"),
}


@pytest.mark.parametrize("bits", sorted(KEYGEN_KAT))
def test_keygen_known_answer(bits):
    rng = Drbg(f"rsa-kat-{bits}")
    k = generate_keypair(bits, rng)
    digest = hashlib.sha256(f"{k.public.n:x}:{k.d:x}:{k.p:x}:{k.q:x}".encode()).hexdigest()
    assert (digest, rng.randbytes(16).hex()) == KEYGEN_KAT[bits]


def test_crt_parameters_are_derived_not_identity():
    k = KEYS
    assert (k.dp, k.dq) == (k.d % (k.p - 1), k.d % (k.q - 1))
    assert (k.qinv * k.q) % k.p == 1
    rebuilt = RsaKeyPair(k.public, k.d, k.p, k.q)
    assert rebuilt == k and hash(rebuilt) == hash(k)
    assert "qinv" not in repr(k) and "dp=" not in repr(k)


def test_modinv_without_inverse_is_crypto_error():
    assert rsa._modinv(3, 7) == 5
    with pytest.raises(CryptoError):
        rsa._modinv(6, 9)


# -- modexp kernel ----------------------------------------------------------------


def _operand(min_value):
    return st.integers(1, 2048).flatmap(lambda b: st.integers(min_value, (1 << b) - 1))


@settings(max_examples=300, deadline=None)
@given(base=_operand(0), exp=_operand(0), mod=_operand(1))
def test_modexp_matches_pow(base, exp, mod):
    assert rsa._modexp(base, exp, mod) == pow(base, exp, mod)


@pytest.mark.parametrize("base, exp, mod", [
    pytest.param(0, 0, 1, id="mod1-zero"),
    pytest.param(5, 0, 1, id="mod1-exp0"),
    pytest.param(5, 3, 1, id="mod1"),
    pytest.param(0, 0, 7, id="exp0-base0"),
    pytest.param(9, 0, 7, id="exp0-odd-mod"),
    pytest.param(9, 0, 6, id="exp0-even-mod"),
    pytest.param(10**40, 3, 7, id="base-much-larger"),
    pytest.param(7, 5, 7, id="base-equals-mod"),
    pytest.param(14, 2, 7, id="base-multiple-of-mod"),
    pytest.param(3, 10**30, 2**64, id="power-of-two-mod"),
    pytest.param(12345, 65537, 1000, id="even-mod"),
    pytest.param((1 << 2048) - 1, (1 << 2048) - 3, (1 << 2047) + 1, id="2048-bit"),
])
def test_modexp_edge_cases(base, exp, mod):
    assert rsa._modexp(base, exp, mod) == pow(base, exp, mod)


def test_native_modexp_rejects_negative_exponent_and_bad_modulus():
    native = rsa._load_native_modexp()
    if native is None:
        pytest.skip("libcrypto not available")
    with pytest.raises(ValueError):
        native(3, -1, 7)
    with pytest.raises(ValueError):
        native(3, 2, 0)


def test_native_backend_active_when_libcrypto_present():
    if ctypes.util.find_library("crypto") is None:
        pytest.skip("libcrypto not available")
    assert rsa.MODEXP_BACKEND == "libcrypto"
    assert rsa._modexp is not pow


def test_kernel_falls_back_when_libcrypto_unloadable(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # import fails
    assert rsa._load_native_modexp() is None
    libm = ctypes.util.find_library("m") or "no-such-libm.so"  # no BN_* symbols
    for path in ("no-such-libcrypto.so", libm):
        monkeypatch.setitem(sys.modules, "_hashlib", types.SimpleNamespace(__file__=path))
        assert rsa._load_native_modexp() is None


def test_builtin_pow_kernel_gives_identical_keys_and_signatures(monkeypatch):
    def run():
        k = generate_keypair(512, Drbg("kernel-equivalence"))
        sig = k.sign(b"message")
        ct = k.public.encrypt(b"secret", Drbg("e"))
        return k, sig, ct, k.public.verify(b"message", sig), k.decrypt(ct)

    active = run()
    monkeypatch.setattr(rsa, "_modexp", pow)
    assert run() == active
    assert active[3] and active[4] == b"secret"


# -- sign / verify --------------------------------------------------------------------


def test_sign_verify_roundtrip():
    sig = KEYS.sign(b"message")
    assert KEYS.public.verify(b"message", sig)


def test_verify_rejects_modified_message():
    sig = KEYS.sign(b"message")
    assert not KEYS.public.verify(b"messagX", sig)


def test_verify_rejects_modified_signature():
    sig = bytearray(KEYS.sign(b"message"))
    sig[0] ^= 1
    assert not KEYS.public.verify(b"message", bytes(sig))


def test_verify_rejects_wrong_key():
    sig = KEYS.sign(b"message")
    assert not OTHER.public.verify(b"message", sig)


def test_verify_rejects_wrong_length_signature():
    assert not KEYS.public.verify(b"m", b"\x00" * 10)


# -- encrypt / decrypt -------------------------------------------------------------------


def test_encrypt_decrypt_roundtrip():
    ct = KEYS.public.encrypt(b"secret", Drbg("e"))
    assert KEYS.decrypt(ct) == b"secret"


def test_decrypt_with_wrong_key_fails():
    ct = KEYS.public.encrypt(b"secret", Drbg("e"))
    with pytest.raises(CryptoError):
        OTHER.decrypt(ct)


def test_encrypt_too_long_rejected():
    with pytest.raises(CryptoError):
        KEYS.public.encrypt(b"x" * (KEYS.public.size_bytes - 10), Drbg("e"))


def test_public_key_serialization_roundtrip():
    data = KEYS.public.to_bytes()
    back = RsaPublicKey.from_bytes(data)
    assert back == KEYS.public
    with pytest.raises(CryptoError):
        RsaPublicKey.from_bytes(data[:-2])


# -- hybrid ---------------------------------------------------------------------------------


def test_hybrid_roundtrip():
    blob = seal(b"delegated credential bytes", KEYS.public, Drbg("h"))
    assert open_sealed(blob, KEYS) == b"delegated credential bytes"


def test_hybrid_hides_plaintext():
    blob = seal(b"VISIBLE-MARKER" * 5, KEYS.public, Drbg("h"))
    assert b"VISIBLE-MARKER" not in blob


def test_hybrid_tamper_detected():
    blob = bytearray(seal(b"payload", KEYS.public, Drbg("h")))
    blob[-1] ^= 1  # flip a MAC bit
    with pytest.raises(CryptoError):
        open_sealed(bytes(blob), KEYS)


def test_hybrid_wrong_recipient_fails():
    blob = seal(b"payload", KEYS.public, Drbg("h"))
    with pytest.raises(CryptoError):
        open_sealed(blob, OTHER)


def test_hybrid_truncated_rejected():
    with pytest.raises(CryptoError):
        open_sealed(b"\x00\x00", KEYS)


# -- cipher suites ------------------------------------------------------------------------------


@pytest.mark.parametrize("suite", [SUITE_NULL_SHA, SUITE_RC4_SHA, SUITE_AES_SHA])
@pytest.mark.parametrize("fast", [False, True])
def test_suite_cipher_roundtrip(suite, fast):
    key = bytes(range(suite.cipher.key_len))
    iv = bytes(suite.cipher.iv_len)
    enc = suite.cipher.new_state(key, iv, fast)
    dec = suite.cipher.new_state(key, iv, fast)
    for message in (b"first message", b"x" * 1000, b"third"):
        ct = enc.encrypt(message)
        if suite.cipher.name != "null":
            assert ct != message
        assert dec.decrypt(ct) == message


def test_suite_key_length_enforced():
    with pytest.raises(ValueError):
        SUITE_AES_SHA.cipher.new_state(b"short", b"\x00" * 16, False)


def test_suite_registry_contents():
    assert set(SUITES) == {
        "null-sha1", "rc4-128-sha1", "aes-256-cbc-sha1", "plaintext",
    }
    assert SUITE_PLAIN.cycles_per_byte == 0.0
    assert SUITE_AES_SHA.cycles_per_byte > SUITE_RC4_SHA.cycles_per_byte


def test_key_block_derivation_deterministic_and_labelled():
    a = derive_key_block(b"master", "label one", 100)
    assert len(a) == 100
    assert a == derive_key_block(b"master", "label one", 100)
    assert a != derive_key_block(b"master", "label two", 100)
    assert a != derive_key_block(b"other!", "label one", 100)


@settings(max_examples=20)
@given(st.binary(min_size=1, max_size=2048))
def test_fast_state_roundtrip_property(data):
    enc = SUITE_AES_SHA.cipher.new_state(b"k" * 32, b"i" * 16, True)
    dec = SUITE_AES_SHA.cipher.new_state(b"k" * 32, b"i" * 16, True)
    assert dec.decrypt(enc.encrypt(data)) == data
