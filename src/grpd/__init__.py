"""grpd: convolution calculus of distributions on concrete Lie groupoid
models, the cotangent-groupoid cone calculus, and a windowed-DFT
wave-front-set estimator."""

from .models import (GroupoidModel, Kind, Element, Unit, element, unit,
                     anchor_maps, src, tgt, unit_embed, is_composable,
                     multiply, invert, pair_circle, circle_group,
                     pair_times_z, affine_group)
from .cotangent import (CotangentPoint, CotangentUnit, KernelKind,
                        ct_anchor_maps, ct_src, ct_tgt, ct_multiply,
                        ct_invert, ct_is_composable, in_kernel,
                        transformation_iso_phi)
from .cones import (ConeSet, ConeCell, Signs, Arcs, Caps, Cap, CircInterval,
                    Transversality, a_star_units, cone_product, cone_product_bar,
                    cone_contains, hormander_gate, transversality)
from .distributions import (Distribution, Layer, TestFunction,
                            FiberDistribution, Anchor, pair,
                            pushforward_base, slice_family, make_layer,
                            tensor_restrict, star_involution, unit_delta,
                            point_mass, smooth_distribution,
                            counterexample_distribution, rasterize)
from .convolution import (GOperator, convolve, convolve_gated,
                          apply_operator, module_property_check,
                          equivariance_defect, recover_kernel)
from .wavefront import (WfParams, WfReport, VerifyReport, estimate_wavefront,
                        decay_slope, verify_product_bound)
from .errors import (GrpdError, DomainError, ModelMismatchError,
                     ComposabilityError, ConeConditionError, OrderCapError,
                     ModelUnsupportedError, SerializationError)

__version__ = "0.1.0"
