"""Record classes: the part of the standard library's ``dataclasses`` that the
package uses, without its import and class-creation cost.

``@dataclass`` or ``@dataclass(frozen=True)`` makes each name annotated in
the class body a field, in order, with its class-level value (if any) as
default; ``field(default_factory=..., repr=False)`` builds a default per
instance or leaves a field out of the repr.  The class gets the methods the
standard library gives it for these options:

- ``__init__`` taking the fields by position or keyword, ``__post_init__``
  last;
- ``__repr__`` as ``QualName(f=value!r, ...)``;
- ``__eq__`` comparing the field tuples of two instances of the same class;
- for a frozen class, ``__hash__`` of the field tuple, and ``__setattr__``
  and ``__delattr__`` raising ``FrozenInstanceError``; a mutable class is
  unhashable.

``__match_args__`` names the fields for positional ``match`` patterns, and
``__record_fields__`` holds their ``Field`` objects; there is no
``__dataclass_fields__``, so ``dataclasses.fields``, ``asdict`` and
``replace`` do not apply to a record.

``dataclasses`` imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``)
and compiles five or six methods per class.  This module imports nothing and
compiles three, ``__init__``, ``__eq__`` and ``__hash__``, in one ``exec``
per class, so that they run at the standard library's speed; repr and the
frozen setters are shared closures.  Any other option, an inherited record,
``ClassVar`` or ``InitVar`` fields, or a class body that defines a method the
decorator provides raises ``TypeError``.
"""

__all__ = ["dataclass", "field", "Field", "FrozenInstanceError"]


class _Missing:
    def __repr__(self):
        return "<factory>"


_MISSING = _Missing()  # no default; in a signature, a default_factory's placeholder
_PROVIDED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of a field of a frozen record."""


class Field:
    """A field's name, default or default_factory, and whether repr shows it."""

    __slots__ = ("name", "default", "default_factory", "repr")

    def __init__(self, default=_MISSING, default_factory=_MISSING, repr=True):
        self.name, self.default, self.default_factory, self.repr = None, default, default_factory, repr


def field(*, default_factory=_MISSING, repr=True) -> Field:
    """A field whose default is built per instance, or left out of the repr."""
    return Field(default_factory=default_factory, repr=repr)


def dataclass(cls=None, /, *, frozen=False):
    """``@dataclass`` or ``@dataclass(frozen=True)``: make cls a record."""
    return (lambda cls: _record(cls, frozen)) if cls is None else _record(cls, frozen)


def _record(cls, frozen: bool):
    if any("__record_fields__" in vars(base) for base in cls.__mro__[1:]):
        raise TypeError(f"{cls.__qualname__}: a record cannot inherit from another record")
    if any(name in vars(cls) for name in _PROVIDED):
        raise TypeError(f"{cls.__qualname__} defines a method that @dataclass provides")
    fields, params, body, defaulted = [], [], [], False
    ns = {"__set": object.__setattr__, "__factory": _MISSING}
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        if "ClassVar" in str(annotation) or "InitVar" in str(annotation):
            raise TypeError(f"{cls.__qualname__}.{name}: ClassVar and InitVar are not supported")
        value = vars(cls).get(name, _MISSING)
        f = value if isinstance(value, Field) else Field(value)
        if f is value:
            delattr(cls, name)
        f.name = name
        fields.append(f)
        if f.default_factory is not _MISSING:
            defaulted = True
            ns[f"__f_{name}"] = f.default_factory
            params.append(f"{name}=__factory")
            value = f"__f_{name}() if {name} is __factory else {name}"
        elif f.default is not _MISSING:
            if type(f.default).__hash__ is None:
                raise ValueError(f"mutable default {type(f.default)} for field {name} is not allowed: "
                                 "use default_factory")
            defaulted = True
            ns[f"__d_{name}"] = f.default
            params.append(f"{name}=__d_{name}")
            value = name
        elif defaulted:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        else:
            params.append(name)
            value = name
        body.append(f"__set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    cls.__record_fields__ = fields = tuple(fields)
    cls.__match_args__ = names = tuple(f.name for f in fields)
    shown = [f.name for f in fields if f.repr]

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {"__repr__": __repr__}
    if frozen:
        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    else:
        cls.__hash__ = None
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)

    def fields_of(obj):
        return "(" + "".join(f"{obj}.{n}, " for n in names) + ")"

    source = (f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]) + "\n"
              "def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return {fields_of('self')} == {fields_of('other')}\n"
              "    return NotImplemented\n")
    if frozen:
        source += f"def __hash__(self):\n    return hash({fields_of('self')})\n"
    ns["__name__"] = cls.__module__  # the methods' __module__
    exec(source, ns)
    for name in ("__init__", "__eq__", "__hash__"):
        if name in ns:
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])
    return cls
