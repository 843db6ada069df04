"""The component model: named, versioned building blocks for scenarios.

Following the gem5 standard-library design, every reusable piece of an
experiment — a host profile, a guest image footprint, a traffic pattern,
a fault plan, a placement policy, a topology — is a small frozen
dataclass with a ``name``, a ``version`` and a ``build()`` hook, held in
a global registry keyed by ``(kind, name, version)``.

Versioning contract:

* a registered component is **immutable**: changing any parameter of a
  published ``name@version`` is forbidden — bump the version instead and
  register the new instance alongside the old one;
* scenario specs must **pin** a version (``daytime@1``); an unversioned
  reference is a typed error, never a silent "latest" (reproducibility
  by construction — an old spec file keeps meaning what it meant);
* a spec may override individual component *parameters* (``{"ref":
  "xl@1", "pooled": false}``); the override set is part of the resolved
  spec and therefore of the spec digest.  An override is checked against
  the parameter's type and domain (:meth:`Component.validate`) when the
  spec is loaded, never first at run time.

Everything here is plain data resolution — no simulation state, no
clocks, no randomness.
"""

from __future__ import annotations

import dataclasses
import typing


class ComponentError(ValueError):
    """Base class for component-resolution failures.

    ``field`` names the scenario-spec field whose value failed to
    resolve, so error messages always point at the offending line of the
    spec rather than at registry internals.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class UnknownComponentError(ComponentError):
    """The referenced component name is not in the registry."""


class ComponentVersionError(ComponentError):
    """The referenced version does not exist (or none was pinned)."""


class ComponentOverrideError(ComponentError):
    """A parameter override names an unknown or reserved field, or gives
    a parameter a value of the wrong type or outside its domain."""


class DuplicateComponentError(ValueError):
    """A second registration for an existing (kind, name, version)."""


@dataclasses.dataclass(frozen=True)
class Component:
    """Base record every library component derives from."""

    name: str
    version: int

    #: Registry namespace; subclasses set this ("host", "guest", ...).
    kind: typing.ClassVar[str] = "component"
    #: Checked parameters: name -> the allowed values, or the least
    #: number allowed (see :meth:`validate`).
    domain: typing.ClassVar[typing.Mapping[str, object]] = {}

    def ref(self) -> str:
        """The canonical pinned reference, ``name@version``."""
        return "%s@%d" % (self.name, self.version)

    def params(self) -> typing.Dict[str, object]:
        """The component's parameters (everything but name/version)."""
        out = {}
        for field in dataclasses.fields(self):
            if field.name in ("name", "version"):
                continue
            out[field.name] = getattr(self, field.name)
        return out

    def describe(self) -> typing.Dict[str, object]:
        """Fully-resolved JSON record (feeds the spec digest)."""
        record: typing.Dict[str, object] = {
            "kind": self.kind, "name": self.name, "version": self.version}
        record.update(self.params())
        return record

    def validate(self) -> None:
        """Raise :class:`ValueError` naming the first parameter whose
        value is outside its :attr:`domain` (e.g. an unknown variant)."""
        for name, allowed in self.domain.items():
            value = getattr(self, name)
            if isinstance(allowed, (int, float)):
                if not value >= allowed:  # also rejects NaN
                    raise ValueError("parameter %r must be >= %s, got %r"
                                     % (name, allowed, value))
            elif value not in allowed:
                raise ValueError("parameter %r must be one of %s, got %r"
                                 % (name, ", ".join(sorted(allowed)),
                                    value))


#: kind -> name -> version -> component instance.
_REGISTRY: typing.Dict[str, typing.Dict[str, typing.Dict[int, Component]]] \
    = {}


def register(component: Component) -> Component:
    """Add ``component`` to the library; duplicate versions are loud."""
    by_name = _REGISTRY.setdefault(component.kind, {})
    versions = by_name.setdefault(component.name, {})
    if component.version in versions:
        raise DuplicateComponentError(
            "component %s %r already has a version %d; published "
            "components are immutable — bump the version instead"
            % (component.kind, component.name, component.version))
    versions[component.version] = component
    return component


def kinds() -> typing.List[str]:
    return sorted(_REGISTRY)


def names(kind: str) -> typing.List[str]:
    return sorted(_REGISTRY.get(kind, {}))


def versions_of(kind: str, name: str) -> typing.List[int]:
    return sorted(_REGISTRY.get(kind, {}).get(name, {}))


def catalogue() -> typing.List[Component]:
    """Every registered component, in (kind, name, version) order."""
    out: typing.List[Component] = []
    for kind in sorted(_REGISTRY):
        by_name = _REGISTRY[kind]
        for name in sorted(by_name):
            for version in sorted(by_name[name]):
                out.append(by_name[name][version])
    return out


def _parse_ref(field: str, text: str) -> typing.Tuple[str, int]:
    """Split ``name@version``; an unpinned version is a typed error."""
    if "@" not in text:
        raise ComponentVersionError(
            field,
            "field %r: component reference %r pins no version; write "
            "'%s@<version>' (specs must be reproducible by construction, "
            "so there is no implicit 'latest')" % (field, text, text))
    name, _, version_text = text.rpartition("@")
    try:
        version = int(version_text)
    except ValueError:
        raise ComponentVersionError(
            field, "field %r: malformed version %r in reference %r "
            "(expected an integer)" % (field, version_text, text))
    return name, version


def lookup(kind: str, name: str, version: int,
           field: str = "?") -> Component:
    """Fetch ``kind`` component ``name@version``; typed errors name the
    spec field and list what *is* available."""
    by_name = _REGISTRY.get(kind, {})
    if name not in by_name:
        raise UnknownComponentError(
            field, "field %r: unknown %s component %r (known: %s)"
            % (field, kind, name, ", ".join(sorted(by_name)) or "none"))
    versions = by_name[name]
    if version not in versions:
        raise ComponentVersionError(
            field, "field %r: %s component %r has no version %d "
            "(have: %s)" % (field, kind, name, version,
                            ", ".join(str(v) for v in sorted(versions))))
    return versions[version]


def resolve(kind: str, ref: object, field: str) -> Component:
    """Resolve a spec-level component reference.

    Accepted shapes:

    * ``"name@version"`` — the plain pinned reference;
    * ``{"ref": "name@version", <param>: <value>, ...}`` — a pinned
      reference plus parameter overrides, applied with
      :func:`dataclasses.replace` after validation.
    """
    if isinstance(ref, str):
        name, version = _parse_ref(field, ref)
        return lookup(kind, name, version, field=field)
    if isinstance(ref, dict):
        payload = dict(ref)
        text = payload.pop("ref", None)
        if not isinstance(text, str):
            raise ComponentOverrideError(
                field, "field %r: a component mapping needs a 'ref' key "
                "with a 'name@version' string, got %r" % (field, ref))
        name, version = _parse_ref(field, text)
        component = lookup(kind, name, version, field=field)
        return _apply_overrides(component, payload, field)
    raise ComponentOverrideError(
        field, "field %r: expected a 'name@version' string or a mapping "
        "with a 'ref' key, got %r" % (field, ref))


def _apply_overrides(component: Component,
                     overrides: typing.Dict[str, object],
                     field: str) -> Component:
    if not overrides:
        return component
    allowed = set(component.params())
    for key in sorted(overrides, key=str):
        if key in ("name", "version", "kind"):
            raise ComponentOverrideError(
                field, "field %r: cannot override reserved key %r of "
                "%s — reference a different component instead"
                % (field, key, component.ref()))
        if key not in allowed:
            raise ComponentOverrideError(
                field, "field %r: %s has no parameter %r "
                "(overridable: %s)" % (field, component.ref(), key,
                                       ", ".join(sorted(allowed))))
        current = getattr(component, key)
        value = overrides[key]
        if not _compatible(current, value):
            raise ComponentOverrideError(
                field, "field %r: parameter %r of %s expects %s, got %r"
                % (field, key, component.ref(),
                   type(current).__name__, value))
    try:
        updated = dataclasses.replace(component, **overrides)
        updated.validate()
    except ValueError as exc:
        raise ComponentOverrideError(
            field, "field %r: %s %s" % (field, component.ref(), exc)) \
            from None
    return updated


def _compatible(current: object, value: object) -> bool:
    """Type check for an override value against the default: an int
    parameter takes only ints, a float parameter ints or floats."""
    if isinstance(current, bool):
        return isinstance(value, bool)
    if isinstance(current, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(current, float):
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)
    if current is None:
        return True
    return isinstance(value, type(current))
