"""Memo tables kept on the object that owns them.

``@memo`` caches a function or method by its arguments.  Every memo in gct
goes through it and follows one policy:

* The table lives on the first argument, the owner, as the attribute
  ``_memo_`` plus the function's name without leading underscores, so it is
  freed with its owner.  No table is kept at module level and no
  ``functools.lru_cache`` runs over ``self``: either would hold every owner
  for the life of the process, because the stored values refer back to it.
* A one-argument function is keyed by the argument itself, any other by the
  tuple of its arguments, which are passed by position.  Classes that
  compare by identity (``eq=False`` dataclasses such as ``HalfBraiding`` and
  ``GroupAction``) are therefore keyed by identity, never by name or data.
* ``weak=True`` holds the first argument after the owner by a weak
  reference, with one sub-table per such object keyed by the remaining
  arguments, so a transient right-hand object takes its entries with it.
* Every result is stored, and None is never a result.  A caller that
  should not store some results (say, the many empty ones) answers those
  before it calls the memoised function.
* Stored values are shared by every later caller, so nothing modifies them
  in place; a function that hands out a mutable value copies it itself.
* ``forget(owner)`` drops every table of an owner.  A memoised function is
  pure, so the next miss recomputes the same bits, and a caller that has
  kept a result still holds a valid value; forgetting costs time, never
  correctness.  Only a pipeline that owns the run calls it, at the end of a
  stage whose keys the next stage will not ask for: the center command
  forgets the category's engine after each grade's extraction (whose keys
  are the induced objects) and after the fusion table.
"""

from __future__ import annotations

import functools
import weakref


def memo(fn=None, *, weak: bool = False):
    if fn is None:
        return functools.partial(memo, weak=weak)
    name = "_memo_" + fn.__name__.lstrip("_")

    def table(owner):
        got = getattr(owner, name, None)
        if got is None:
            got = weakref.WeakKeyDictionary() if weak else {}
            setattr(owner, name, got)
        return got

    def miss(owner, tab, key, args):
        got = tab[key] = fn(owner, *args)
        return got

    if weak:
        def call(owner, ref, *rest):
            per_ref = table(owner)
            tab = per_ref.get(ref)
            if tab is None:
                tab = per_ref[ref] = {}
            got = tab.get(rest)
            return miss(owner, tab, rest, (ref, *rest)) if got is None else got
    elif fn.__code__.co_argcount == 2:
        def call(owner, arg):
            tab = getattr(owner, name, None)
            got = None if tab is None else tab.get(arg)
            return miss(owner, table(owner), arg, (arg,)) if got is None else got
    else:
        def call(owner, *args):
            tab = getattr(owner, name, None)
            got = None if tab is None else tab.get(args)
            return miss(owner, table(owner), args, args) if got is None else got
    return functools.wraps(fn)(call)


def forget(owner) -> None:
    """Drop every memo table of `owner` (see the module docstring)."""
    for name in [n for n in vars(owner) if n.startswith("_memo_")]:
        delattr(owner, name)
