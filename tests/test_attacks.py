import random
from collections import Counter

import pytest

from iovsim.attacks import (
    DDOS,
    FINNEY,
    KINDS,
    MITM,
    PHANTOM_ID_BASE,
    SYBIL,
    AttackProfile,
    make_phantoms,
    mark_communications,
)
from iovsim.network import Position
from iovsim.trust import CommRecord

from helpers import node_with_tl


def test_profile_validation():
    AttackProfile()
    with pytest.raises(ValueError):
        AttackProfile(fraction=1.5)
    with pytest.raises(ValueError):
        AttackProfile(mix={"tsunami": 1.0})
    with pytest.raises(ValueError):
        AttackProfile(mix={SYBIL: -1.0})
    with pytest.raises(ValueError):
        AttackProfile(fraction=0.2, mix={SYBIL: 0.0})
    with pytest.raises(ValueError):
        AttackProfile(sybil_identity_count=0)
    with pytest.raises(ValueError):
        AttackProfile(flood_multiplier=0)
    # all-zero weights are fine when nothing is ever marked
    AttackProfile(fraction=0.0, mix={SYBIL: 0.0})


def test_disabled_keeps_knobs_but_zeroes_fraction():
    p = AttackProfile(fraction=0.3, mix={DDOS: 2.0}, flood_multiplier=7)
    off = p.disabled()
    assert off.fraction == 0.0
    assert off.mix == {DDOS: 2.0}
    assert off.flood_multiplier == 7
    assert p.fraction == 0.3  # original untouched


def test_mark_count_and_range():
    profile = AttackProfile(fraction=0.10)
    marks = mark_communications(500, profile, random.Random(3))
    assert len(marks) == 50
    assert all(0 <= i < 500 for i in marks)
    assert set(marks.values()) <= set(KINDS)
    assert list(marks) == sorted(marks)


def test_mark_count_rounds():
    profile = AttackProfile(fraction=0.25)
    assert len(mark_communications(10, profile, random.Random(1))) == 2  # 2.5 rounds even
    assert len(mark_communications(14, profile, random.Random(1))) == 4  # 3.5 rounds even
    assert mark_communications(0, profile, random.Random(1)) == {}
    assert mark_communications(100, AttackProfile(fraction=0.0), random.Random(1)) == {}


def test_mark_determinism():
    profile = AttackProfile(fraction=0.2)
    a = mark_communications(300, profile, random.Random(9))
    b = mark_communications(300, profile, random.Random(9))
    assert a == b
    c = mark_communications(300, profile, random.Random(10))
    assert a != c


def test_mark_respects_mix_weights():
    profile = AttackProfile(fraction=1.0, mix={FINNEY: 1.0, MITM: 0.0})
    marks = mark_communications(200, profile, random.Random(5))
    assert set(marks.values()) == {FINNEY}
    heavy = AttackProfile(fraction=1.0, mix={SYBIL: 9.0, DDOS: 1.0})
    counts = Counter(mark_communications(2000, heavy, random.Random(5)).values())
    assert counts[SYBIL] > counts[DDOS] * 4


def test_phantoms_mirror_owner_and_alias_back():
    owner = node_with_tl(12, Position(10.0, 20.0), 4.0)
    phantoms, aliases = make_phantoms(owner, count=5, serial=3)
    assert len(phantoms) == 5
    assert [p.id for p in phantoms] == [PHANTOM_ID_BASE + 15 + i for i in range(5)]
    for p in phantoms:
        assert p.pos == owner.pos
        assert p.is_attacker
        assert p.queue is None
        assert p.trust_score() == owner.trust_score()
        assert aliases[p.id] == owner.id


def test_phantom_ids_never_collide_across_serials():
    owner = node_with_tl(1, Position(0.0, 0.0), 1.0)
    seen = set()
    for serial in range(40):
        phantoms, _ = make_phantoms(owner, count=5, serial=serial)
        ids = {p.id for p in phantoms}
        assert not ids & seen
        seen |= ids


def test_phantoms_advertise_by_sharing_the_owner_trust_object():
    # the phantom does not copy the score, it aliases the owner's trust
    # state, so whatever the owner earns later is advertised too
    owner = node_with_tl(2, Position(0.0, 0.0), 5.0)
    phantoms, _ = make_phantoms(owner, count=2, serial=0)
    assert phantoms[0].trust is owner.trust
    before = phantoms[0].trust_score()
    owner.trust.add(CommRecord(rx=1, tx=1, ts_start=0.0, ts_complete=1.0,
                               e_start=2.0, e_complete=1.0))
    assert phantoms[0].trust_score() > before

