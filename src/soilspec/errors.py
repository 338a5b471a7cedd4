"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`SoilspecError` so callers
(and the CLI) can separate contract violations from genuine bugs.
"""


class SoilspecError(Exception):
    """Base class for all domain errors raised by soilspec."""


class BadArgument(SoilspecError, ValueError):
    """A library call got an argument it does not accept: an unknown name, a
    count below 1, a negative spread. The CLI's parser keeps these out of
    reach. Also a ValueError, so a caller that catches one still does."""


# -- cube container and tabular formats --------------------------------------

class MalformedHeader(SoilspecError):
    """Container magic, header fields, or wavelength table are invalid."""


class BandCountMismatch(SoilspecError):
    """Container declares a band count other than the expected one."""


class TruncatedPayload(SoilspecError):
    """File ends before the declared pixel payload is complete."""


class IntensityOverflow(SoilspecError):
    """A pixel intensity exceeds the 10-bit sensor range (0..1023)."""


class IoFailure(SoilspecError):
    """Underlying I/O error while writing a container or dataset."""


# -- compositions and the texture triangle ------------------------------------

class NegativeComponent(SoilspecError):
    """A clay/silt/sand component is negative (or above 100)."""


class SumViolation(SoilspecError):
    """Measured composition components do not sum to 100."""


class OffSimplex(SoilspecError):
    """Composition handed to the triangle is not on the 100% simplex."""


class AllNonPositive(SoilspecError):
    """Predicted composition has no positive component to rescale."""


class WeightSumViolation(SoilspecError):
    """Mixture weights are negative or do not sum to 1."""


# -- preprocessing -------------------------------------------------------------

class DimensionMismatch(SoilspecError):
    """Image planes that must share a shape do not."""


class RoiOutOfBounds(SoilspecError):
    """Requested crop window does not fit inside the image."""


# -- feature scaling and signatures --------------------------------------------

class DegenerateBand(SoilspecError):
    """A band is constant on the fitting data; min-max scale undefined."""


class NotFitted(SoilspecError):
    """Transform was used before fitting."""


class EmptyGroup(SoilspecError):
    """Signature emission asked to average an empty group."""


# -- discriminant analysis ------------------------------------------------------

class SingleClass(SoilspecError):
    """Scatter matrices need at least two classes."""


class NumericalFailure(SoilspecError):
    """Eigensolve failed, or a learner was handed NaN or inf values."""


# -- learners and metrics --------------------------------------------------------

class EmptyTrainingSet(SoilspecError):
    """Learner fitted with zero samples."""


class LabelOutOfRange(SoilspecError):
    """A class label is not a whole number in [0, n_classes)."""


class KTooLarge(SoilspecError):
    """Neighbor count exceeds the training-set size."""


class ClassTooSmall(SoilspecError):
    """Oversampling needs at least two samples per class."""


class LengthMismatch(SoilspecError):
    """Truth and prediction vectors differ in length."""


class ConstantTruth(SoilspecError):
    """R^2 is undefined when the truth component is constant."""


# -- cross-validation orchestration ----------------------------------------------

class SpecimenOverlap(SoilspecError):
    """Train and external-validation tables share specimen ids."""


class FoldPlanError(SoilspecError):
    """An evaluation plan that some fit or score would reject: too few units
    for N_FOLDS folds, a specimen of mixed texture, a training split the fit
    cannot use, or a test fold or validation table that R^2 cannot score."""
