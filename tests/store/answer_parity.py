"""Answer parity: an app index answers every query its reference does.

An app's index (:class:`~repro.store.lazy.LazyTokenIndex`) asks each
library group in turn and holds no app-wide vocabulary, so it is
compared with :func:`reference_index`, the direct fold of the app-wide
token stream (:func:`app_tokens`), by its answers: ``token_lines`` is
the only query an app index serves.  No job path folds a whole app in
one piece, so this reference lives here, with the tests.
"""

import re

from repro.search.backends.indexed import TokenIndex, fold_tokens

#: A bare dex reference-type descriptor, possibly array-wrapped.
DESCRIPTOR_RE = re.compile(r"\[*L[^;]+;")
#: Where a descriptor can start: an array bracket or a class ``L``.
_OPENER_RE = re.compile(r"[\[L]")


def app_tokens(disassembly):
    """Every group's tokens at absolute lines, in line order, as
    ``(line_no, kind, text)`` triples."""
    return [
        (columns.start_line + rel, kind, text)
        for columns, tokens in zip(
            disassembly.group_columns, disassembly.group_tokens
        )
        for rel, kind, text in tokens
    ]


def reference_index(disassembly):
    """The direct fold of the app-wide token stream, in one piece."""
    return TokenIndex(*fold_tokens(app_tokens(disassembly)))


def embedded_needles(text):
    """The descriptor- and signature-shaped substrings of a token text.

    Two families, the needles a descriptor or signature query can find
    *inside* a longer token:

    * every proper suffix starting at a ``[`` or ``L`` that is still a
      descriptor or still holds a signature's ``;.`` and ``:`` — one
      class name can suffix another (``La;.m:()V`` inside
      ``Lcom/La;.m:()V``);
    * every descriptor ending mid-token (parameter and return types in
      signatures, protos and array descriptors), with its own
      array-prefix/``L``-restart suffixes (``[[Lcom/La;`` holds
      ``[Lcom/La;``, ``Lcom/La;`` and ``La;``).
    """
    found = set()
    # A suffix holds ";." and ":" exactly when it starts at or before
    # the last of each.
    signature_until = min(text.rfind(";."), text.rfind(":"))
    for opener in _OPENER_RE.finditer(text, 1):
        i = opener.start()
        if i <= signature_until or DESCRIPTOR_RE.fullmatch(text, i):
            found.add(text[i:])
    for match in DESCRIPTOR_RE.finditer(text):
        end = match.end()
        for opener in _OPENER_RE.finditer(text, match.start(), end):
            if DESCRIPTOR_RE.fullmatch(text, opener.start(), end):
                found.add(text[opener.start():end])
    return found


def token_needles(reference):
    """Every vocabulary text of *reference* and every descriptor- or
    signature-shaped substring of one."""
    needles = set(reference.vocab)
    for text in reference.vocab:
        needles |= embedded_needles(text)
    return needles


def reference_needles(reference):
    """:func:`token_needles`, plus a mid-token substring of each, in
    sorted order."""
    keys = token_needles(reference)
    return sorted(keys | {key[1:-1] for key in keys if len(key) > 2})


def assert_same_answers(index, reference):
    """``index`` answers every reference needle as ``reference`` does."""
    for needle in reference_needles(reference):
        assert index.token_lines(needle) == \
            reference.token_lines(needle), needle
