"""FITS header: an ordered, keyword-addressable collection of cards."""

from __future__ import annotations

from typing import Iterator

from repro.fits.cards import CARD_LENGTH, Card, CardValue, format_card, parse_card

BLOCK_SIZE = 2880
CARDS_PER_BLOCK = BLOCK_SIZE // CARD_LENGTH  # 36


class Header:
    """Ordered mapping of FITS keywords to values with comments.

    Behaves like a dict for value keywords (``hdr["NAXIS"]``) while
    preserving card order and commentary cards, as real FITS tooling must.
    """

    def __init__(self, cards: list[Card] | None = None) -> None:
        self._cards: list[Card] = list(cards or [])

    # -- mapping interface -------------------------------------------------
    def __getitem__(self, keyword: str) -> CardValue:
        for card in self._cards:
            if card.keyword == keyword and not card.is_commentary:
                return card.value
        raise KeyError(keyword)

    def get(self, keyword: str, default: CardValue = None) -> CardValue:
        try:
            return self[keyword]
        except KeyError:
            return default

    def set(self, keyword: str, value: CardValue, comment: str | None = None) -> None:
        """Set ``keyword`` to ``value``, replacing the first existing card
        with that keyword or appending a new one (a commentary card is
        always appended)."""
        for i, card in enumerate(self._cards):
            if card.keyword == keyword and not card.is_commentary:
                self._cards[i] = Card(keyword, value, comment if comment is not None else card.comment)
                return
        self._cards.append(Card(keyword, value, comment or ""))

    def __iter__(self) -> Iterator[Card]:
        return iter(self._cards)

    def add_history(self, text: str) -> None:
        self._cards.append(Card("HISTORY", None, text))

    # -- serialisation -----------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to one or more 2880-byte blocks, END-terminated."""
        records = [format_card(c) for c in self._cards]
        records.append(f"{'END':<{CARD_LENGTH}s}")
        text = "".join(records)
        pad = (-len(text)) % BLOCK_SIZE
        return (text + " " * pad).encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["Header", int]:
        """Parse a header from ``data``; return it and the byte offset just
        past its final 2880-byte block."""
        cards: list[Card] = []
        offset = 0
        while True:
            if offset + CARD_LENGTH > len(data):
                raise ValueError("truncated FITS header: no END card found")
            record = data[offset : offset + CARD_LENGTH].decode("ascii")
            offset += CARD_LENGTH
            if record[:8].rstrip() == "END":
                break
            if record.strip() == "":
                continue  # blank padding card before END in sloppy writers
            cards.append(parse_card(record))
        # Round up past the block containing END.
        consumed = ((offset + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        return cls(cards), consumed
