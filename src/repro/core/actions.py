"""The transformation-action framework (Section 4.1).

"Transformation actions are suited to recognizing and transforming
'patterns' occurring in their scope of application.  They have the
form::

    action: F | constraint -> G

where ``F`` and ``G`` are patterns describing subparts of the granule
to which the action is applied and ``constraint`` is a predicate whose
truth conditions the applicability of the action."

We keep the declarative flavour with Python as the pattern language: an
:class:`Action` exposes ``applications(granule)`` returning the sites
where ``F`` matches and ``constraint`` holds; each
:class:`Application` can ``apply()`` to produce the transformed
granule.  Strategies (:func:`saturate`, generatePT, the transformPT
search of :mod:`repro.core.enumerate`) choose among applications — irrevocably (rewriting), generatively, or by cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterator, List, Optional, TypeVar

__all__ = ["Application", "Action", "saturate"]

Granule = TypeVar("Granule")


@dataclass
class Application(Generic[Granule]):
    """One applicable instance of an action on a granule."""

    action: "Action[Granule]"
    description: str
    _apply: Callable[[], Granule]

    def apply(self) -> Granule:
        """Perform the transformation, returning the new granule."""
        return self._apply()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{self.action.name}: {self.description}"


class Action(Generic[Granule]):
    """A named transformation action.

    Subclasses (or instances built with ``finder``) implement
    :meth:`applications`, yielding every site where the pattern matches
    and the constraint holds.
    """

    def __init__(
        self,
        name: str,
        finder: Optional[
            Callable[[Granule], Iterator[Application[Granule]]]
        ] = None,
    ) -> None:
        self.name = name
        self._finder = finder

    def applications(self, granule: Granule) -> Iterator[Application[Granule]]:
        """Every site where the pattern matches and the constraint
        holds on ``granule``."""
        if self._finder is None:
            raise NotImplementedError(
                f"action {self.name!r} defines no finder"
            )
        return self._finder(granule)

    def first_application(
        self, granule: Granule
    ) -> Optional[Application[Granule]]:
        """The first applicable site, or None."""
        for application in self.applications(granule):
            return application
        return None

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Action({self.name!r})"


def saturate(
    granule: Granule,
    actions: List[Action[Granule]],
    max_steps: int = 10_000,
    trace: Optional[List[str]] = None,
) -> Granule:
    """Apply actions up to saturation — the *irrevocable* strategy of
    Figure 6: "does not involve choices and proceeds always
    straight-ahead, like in query rewriters"."""
    current = granule
    for _step in range(max_steps):
        fired = False
        for action in actions:
            application = action.first_application(current)
            if application is not None:
                current = application.apply()
                if trace is not None:
                    trace.append(repr(application))
                fired = True
                break
        if not fired:
            return current
    raise RuntimeError("saturate() did not converge")
