"""Exception types shared across the library.

Everything derives from CGTCError so callers (and the CLI) can separate
library failures from programming errors. Scenario-file problems get their
own branch so the CLI can map them to a distinct exit code.
"""


class CGTCError(Exception):
    """Base class for all library errors."""


class NonPositiveDt(CGTCError):
    """Integration step must be strictly positive and finite."""


class LengthMismatch(CGTCError):
    """Paired sequences differ in length."""


class ZeroVariance(CGTCError):
    """Correlation undefined: one variable is constant."""


class InsufficientSamples(CGTCError):
    """Too few samples for the requested polynomial degree."""


class MonotonicityViolation(CGTCError):
    """Cubic rudder/heading relation is not strictly increasing."""


class OutOfRange(CGTCError):
    """Requested heading change lies outside the relation's range."""


class CoincidentPoints(CGTCError):
    """Bearing undefined between identical points."""


class FactorOutOfRange(CGTCError):
    """Ship-domain factor outside the accepted interval."""


class Unreachable(CGTCError):
    """No rudder angle within actuator limits achieves the target."""


class NonConvergence(CGTCError):
    """Iterative solve exhausted its budget without meeting tolerance."""


class InsideObstacle(CGTCError):
    """Geometry request from a point inside an obstacle disc."""


class StartInsideObstacle(CGTCError):
    """Scenario start pose lies inside an obstacle disc."""


class DestinationInsideObstacle(CGTCError):
    """Scenario destination lies inside an obstacle disc."""


class ParallelCourses(CGTCError):
    """Own and obstacle heading rays are parallel."""


class NoForwardIntersection(CGTCError):
    """Heading rays meet only behind one of the vessels."""


class NoFeasibleRadius(CGTCError):
    """No virtual-obstacle radius resolves the encounter."""


class NoGridPath(CGTCError):
    """Grid baseline found no path between start and destination."""


class GridTooLarge(CGTCError):
    """Grid baseline's search grid holds more nodes than it may search."""


class ScenarioError(CGTCError):
    """Base for scenario-file problems (CLI exit code 2)."""


class ParseError(ScenarioError):
    """Scenario file is not syntactically valid."""


class ValidationError(ScenarioError):
    """Scenario file parsed but violates the schema."""
