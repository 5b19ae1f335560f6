"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class MalformedFacetError(ToolkitError):
    """A facet is empty, repeats a vertex or has unorderable vertices, or a complex
    file lacks a list, holds a field not of its kind or names an unlisted vertex."""


class BadNameError(ToolkitError):
    """A named subcomplex refers to simplices outside the complex."""


class UnsupportedModelError(ToolkitError):
    """Unknown model name or parameter outside its documented range."""


class BadBasepointError(ToolkitError):
    """A wedge or bouquet basepoint is missing or sits on a branch locus."""


class NotManifoldLikeError(ToolkitError):
    """Boundary extraction needs a pure complex with facet-sharing at most two."""


class NothingToDoubleError(ToolkitError):
    """Doubling requires a nonempty boundary."""


class MissingSimplexError(ToolkitError):
    """A simplex was requested that the complex does not contain."""


class IncompatibleCochainError(ToolkitError):
    """Matrix, chain or cochain operands or degrees do not fit, or a vector is
    not a (co)cycle."""


class NotAnInclusionError(ToolkitError):
    """Restriction needs an injective, simplex-preserving vertex map."""


class BadCoverError(ToolkitError):
    """The two named subcomplexes do not cover the ambient complex."""


class NonInjectiveFieldError(ToolkitError):
    """Vertex field values must be pairwise distinct."""


class MalformedFieldError(ToolkitError):
    """A vertex field value is not a rational number."""


class InvalidSubmanifoldError(ToolkitError):
    """A designated piece violates the preconditions for doubling."""


class InvalidBranchLocusError(ToolkitError):
    """A designated locus is not a closed codimension-one subcomplex."""


class InvalidCertificateError(ToolkitError):
    """A collapse certificate step is stale or removes a face that is not free."""


class InvariantViolationError(ToolkitError):
    """A complex or a constructed model breaks a structural invariant: closure,
    vertex order, named parts, assets, a flap's collapse or a Reeb slab."""


class InconsistentHandleDataError(ToolkitError):
    """Handle counts produce a negative predicted rank."""


class RecipeError(ToolkitError):
    """A recipe step failed validation; carries the step index and field."""

    def __init__(self, message, step=None, field=None):
        super().__init__(message)
        self.step = step
        self.field = field
