"""Core objects for pattern packing in words.

A *word* is a finite string over the totally ordered alphabet {1, ..., k}.
A *pattern* is a canonical word (its distinct letters are exactly {1, ..., l})
together with a set of hyphenated gaps.  A gap g (between letters g and g+1,
1-indexed) that carries a hyphen puts no adjacency requirement on an
occurrence; a gap without a hyphen forces the two letters to sit next to each
other in the host word.  A pattern with every gap hyphenated is *classical*,
one with no hyphens is a *subword* pattern.

Text form: letters are digits ("132", "1122") or comma-separated integers
when any letter exceeds 9 ("1,10,2"); "-" marks a hyphenated gap ("1-3-2",
"21-3", "1,10-2").  Words use the same grammar without hyphens.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple


class ParseError(ValueError):
    """Raised for malformed pattern or word text."""


class CanonicalizationWarning(UserWarning):
    """Emitted when parsed letters had to be re-canonicalized."""


def flatten(letters: Sequence[int]) -> Tuple[int, ...]:
    """Canonical form of a letter sequence: relabel onto {1..l} preserving
    all equalities and strict comparisons."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(letters)))}
    return tuple(rank[v] for v in letters)


def is_canonical(letters: Sequence[int]) -> bool:
    """True iff the distinct letters are exactly {1..l}."""
    s = set(letters)
    return s == set(range(1, len(s) + 1))


@dataclass(frozen=True)
class Pattern:
    """A canonical pattern with hyphenated gaps.

    ``hyphens`` holds the 1-indexed gaps that carry a hyphen; valid gaps are
    1..m-1.  ``Pattern((1,2,2))`` is the subword pattern 122,
    ``Pattern.classical((1,2,2))`` the classical one.
    """

    letters: Tuple[int, ...]
    hyphens: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "hyphens", frozenset(self.hyphens))
        if not self.letters:
            raise ValueError("empty pattern")
        if not is_canonical(self.letters):
            raise ValueError(f"pattern letters not canonical: {self.letters}")
        m = len(self.letters)
        if any(not (1 <= g <= m - 1) for g in self.hyphens):
            raise ValueError(f"hyphen gap out of range for m={m}: {sorted(self.hyphens)}")

    @classmethod
    def classical(cls, letters: Sequence[int]) -> "Pattern":
        """Pattern with every gap hyphenated (plain subsequence containment)."""
        m = len(tuple(letters))
        return cls(tuple(letters), frozenset(range(1, m)))

    @property
    def m(self) -> int:
        """Pattern length."""
        return len(self.letters)

    @property
    def l(self) -> int:
        """Number of distinct letters."""
        return max(self.letters)

    @property
    def b(self) -> int:
        """Number of blocks (maximal hyphen-free runs)."""
        return len(self.hyphens) + 1

    @property
    def is_classical(self) -> bool:
        return len(self.hyphens) == self.m - 1

    @property
    def is_subword(self) -> bool:
        return not self.hyphens

    @property
    def is_permutation(self) -> bool:
        """All letters distinct."""
        return self.l == self.m

    @property
    def is_constant(self) -> bool:
        return self.l == 1

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """Letter runs between hyphens, in order."""
        out = []
        cur = [self.letters[0]]
        for g in range(1, self.m):
            if g in self.hyphens:
                out.append(tuple(cur))
                cur = []
            cur.append(self.letters[g])
        out.append(tuple(cur))
        return tuple(out)

    def __str__(self) -> str:
        return format_pattern(self)


@dataclass(frozen=True)
class Word:
    """A concrete word over the alphabet {1..k}.  Words are not
    canonicalized; ``k`` defaults to the largest letter present."""

    letters: Tuple[int, ...]
    k: int = 0

    def __post_init__(self) -> None:
        letters = self.letters
        if type(letters) is not tuple:
            letters = tuple(letters)
            object.__setattr__(self, "letters", letters)
        if letters:
            lo, hi = min(letters), max(letters)
            if self.k == 0:
                object.__setattr__(self, "k", hi)
            if lo < 1 or hi > self.k:
                raise ValueError(f"letters out of range 1..{self.k}: {letters}")

    @property
    def n(self) -> int:
        return len(self.letters)

    def canonical(self) -> "Word":
        """The order-isomorphic word on {1..d}."""
        flat = flatten(self.letters)
        return Word(flat, max(flat) if flat else 0)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class WeightedPatternSet:
    """Patterns with nonnegative rational weights.  All members must share
    one length m and one block count b so that a single occurrence
    denominator applies."""

    entries: Tuple[Tuple[Pattern, Fraction], ...]

    def __post_init__(self) -> None:
        entries = tuple((p, Fraction(w)) for p, w in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("empty pattern set")
        m0, b0 = entries[0][0].m, entries[0][0].b
        for p, w in entries:
            if (p.m, p.b) != (m0, b0):
                raise ValueError("patterns must share length m and block count b")
            if w < 0:
                raise ValueError("weights must be nonnegative")
        if all(w == 0 for _, w in entries):
            raise ValueError("at least one weight must be positive")
        seen = set()
        for p, _ in entries:
            if p in seen:
                raise ValueError(f"duplicate pattern {p}")
            seen.add(p)

    @classmethod
    def single(cls, p: Pattern) -> "WeightedPatternSet":
        return cls(((p, Fraction(1)),))

    @classmethod
    def uniform(cls, patterns: Iterable[Pattern]) -> "WeightedPatternSet":
        return cls(tuple((p, Fraction(1)) for p in patterns))

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    @property
    def b(self) -> int:
        return self.entries[0][0].b

    def patterns(self) -> Tuple[Pattern, ...]:
        return tuple(p for p, _ in self.entries)


#: layer kinds reported by layered_decompose
KIND_SINGLE = "single"
KIND_DECREASING = "decreasing"
KIND_CONSTANT = "constant"
KIND_MIXED = "mixed"


@dataclass(frozen=True)
class LayeredShape:
    """Layer lengths of a layered word or permutation, with the kind of
    each layer (single letter, strictly decreasing, constant, or mixed)."""

    lengths: Tuple[int, ...]
    kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not self.lengths or any(s < 1 for s in self.lengths):
            raise ValueError(f"bad layer lengths {self.lengths}")

    @property
    def r(self) -> int:
        """Number of layers."""
        return len(self.lengths)

    @property
    def m(self) -> int:
        return sum(self.lengths)


def reverse(p: Pattern) -> Pattern:
    """Mirror the pattern left-right; hyphenated gaps mirror with it."""
    m = p.m
    return Pattern(tuple(reversed(p.letters)), frozenset(m - g for g in p.hyphens))


def complement(p: Pattern) -> Pattern:
    """Flip the letter values top-bottom; gaps are unchanged."""
    l = p.l
    return Pattern(tuple(l + 1 - v for v in p.letters), p.hyphens)


def inverse(p: Pattern) -> Pattern:
    """Permutation inverse.  Defined only for classical permutation
    patterns; occurrence counts in arbitrary words are not preserved
    otherwise."""
    if not p.is_permutation:
        raise ValueError("inverse requires a permutation pattern (no repeated letters)")
    if not p.is_classical:
        raise ValueError("inverse requires a classical pattern (all gaps hyphenated)")
    inv = [0] * p.m
    for i, v in enumerate(p.letters):
        inv[v - 1] = i + 1
    return Pattern.classical(tuple(inv))


def symmetry_class(p: Pattern, include_inverse: bool = False) -> Tuple[Pattern, ...]:
    """Closure of p under reverse and complement (and inverse when
    requested), sorted by (letters, sorted gaps) for a deterministic
    representative order."""
    if include_inverse and not (p.is_permutation and p.is_classical):
        raise ValueError("inverse closure requires a classical permutation pattern")
    seen = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        images = [reverse(q), complement(q)]
        if include_inverse:
            images.append(inverse(q))
        for im in images:
            if im not in seen:
                seen.add(im)
                frontier.append(im)
    return tuple(sorted(seen, key=lambda q: (q.letters, tuple(sorted(q.hyphens)))))


def layered_decompose(p: Pattern) -> Optional[LayeredShape]:
    """Split the letter sequence into maximal non-increasing runs.  The
    pattern is layered iff every letter of a run is smaller than every
    letter of the next run; returns None otherwise.

    Layer kinds record whether each run is a single letter, strictly
    decreasing, constant, or mixed (a run like 332 that is neither)."""
    runs = []
    cur = [p.letters[0]]
    for v in p.letters[1:]:
        if v <= cur[-1]:
            cur.append(v)
        else:
            runs.append(cur)
            cur = [v]
    runs.append(cur)
    # first letter of a run is its max, last letter its min
    for a, b in zip(runs, runs[1:]):
        if a[0] >= b[-1]:
            return None
    kinds = []
    for run in runs:
        if len(run) == 1:
            kinds.append(KIND_SINGLE)
        elif all(x > y for x, y in zip(run, run[1:])):
            kinds.append(KIND_DECREASING)
        elif all(x == y for x, y in zip(run, run[1:])):
            kinds.append(KIND_CONSTANT)
        else:
            kinds.append(KIND_MIXED)
    return LayeredShape(tuple(len(run) for run in runs), tuple(kinds))


def blocks(p: Pattern) -> Tuple[int, ...]:
    """Letter multiplicities (a_1, ..., a_l) of a monotone nondecreasing
    pattern 1^{a_1} 2^{a_2} ... l^{a_l}."""
    if any(x > y for x, y in zip(p.letters, p.letters[1:])):
        raise ValueError(f"pattern {p} is not monotone nondecreasing")
    mult = [0] * p.l
    for v in p.letters:
        mult[v - 1] += 1
    return tuple(mult)


def as_classical(p: Pattern) -> Pattern:
    """The same letters with every gap hyphenated."""
    return Pattern.classical(p.letters)


def _parse_items(text: str) -> Iterator[object]:
    """Yield letters (int) and hyphen markers (the string '-')."""
    if not text:
        raise ParseError("empty text")
    if "," in text:
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise ParseError(f"empty item in {text!r}")
            first = True
            for piece in token.split("-"):
                if not first:
                    yield "-"
                first = False
                if not piece:
                    raise ParseError(f"misplaced hyphen in {text!r}")
                if not piece.isdigit():
                    raise ParseError(f"bad letter {piece!r} in {text!r}")
                yield int(piece)
    else:
        for ch in text:
            if ch == "-":
                yield "-"
            elif ch.isdigit():
                yield int(ch)
            else:
                raise ParseError(f"bad character {ch!r} in {text!r}")


def _parse_letters_and_gaps(text: str) -> Tuple[Tuple[int, ...], frozenset]:
    letters = []
    gaps = set()
    pending_hyphen = False
    for item in _parse_items(text):
        if item == "-":
            if not letters or pending_hyphen:
                raise ParseError(f"misplaced hyphen in {text!r}")
            pending_hyphen = True
        else:
            if pending_hyphen:
                gaps.add(len(letters))
                pending_hyphen = False
            letters.append(item)
    if pending_hyphen:
        raise ParseError(f"trailing hyphen in {text!r}")
    if any(v < 1 for v in letters):
        raise ParseError(f"letters must be positive in {text!r}")
    return tuple(letters), frozenset(gaps)


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text.

    Hyphen-free text is read as a classical pattern (any gaps allowed in an
    occurrence); a trailing 'g' marks hyphen-free text as a subword pattern
    (all letters adjacent); text with hyphens is read literally, unwritten
    gaps requiring adjacency.  So "121" is classical, "121g" is the subword
    pattern, and "12-1" requires only its first two letters adjacent.
    Letters that do not already form {1..l} are accepted, re-canonicalized,
    and reported with a CanonicalizationWarning.
    """
    text = text.strip()
    subword = False
    if text and text[-1] in "gG":
        subword = True
        text = text[:-1].strip()
    letters, gaps = _parse_letters_and_gaps(text)
    if subword and gaps:
        raise ParseError(f"subword suffix 'g' conflicts with hyphens in {text!r}")
    if not subword and not gaps:
        gaps = frozenset(range(1, len(letters)))
    flat = flatten(letters)
    if flat != letters:
        warnings.warn(
            f"pattern letters {letters} re-canonicalized to {flat}",
            CanonicalizationWarning,
            stacklevel=2,
        )
    return Pattern(flat, gaps)


def format_pattern(p: Pattern) -> str:
    """Inverse of parse_pattern: classical patterns print plain, subword
    patterns take a 'g' suffix, and anything else prints its hyphens."""
    comma = p.l > 9
    if p.is_classical:
        sep = "," if comma else ""
        return sep.join(str(v) for v in p.letters)
    out = []
    for i, v in enumerate(p.letters):
        if i > 0:
            if i in p.hyphens:
                out.append("-")
            elif comma:
                out.append(",")
        out.append(str(v))
    if p.is_subword and p.m > 1:
        out.append("g")
    return "".join(out)


def parse_word(text: str, k: int = 0) -> Word:
    """Parse word text; hyphens are not allowed in words."""
    letters, gaps = _parse_letters_and_gaps(text.strip())
    if gaps:
        raise ParseError(f"hyphens are not allowed in words: {text!r}")
    return Word(letters, k)


def format_word(w: Word) -> str:
    if w.letters and max(w.letters) > 9:
        return ",".join(str(v) for v in w.letters)
    return "".join(str(v) for v in w.letters)
