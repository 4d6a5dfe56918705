"""Multi-component cut-and-project sets and their invariant densities."""

from .cyclotomic import ONE, TAU, XI, ZERO, CoefficientOverflow, CycInt
from .pfsolve import PfResult, check_pf1, pf_eigen
from .polygeom import (GridSpec, Region, area, contains, contains_many,
                       erode, linear_image, rasterize, support, translate)
from .refine import (DensityGrid, FixedPointResult, RefinementKernel,
                     apply_refinement, build_kernel, compare_solvers,
                     fourier_product, grid_ft, initial_density,
                     make_centered_grid, polygon_ft, solve_fixed_point)
from .scheme import (PointSet, SchemeSpec, build_nu, check_selfsim_closure,
                     generate_all, penrose_scheme, points_csv_text,
                     transition_windows, translation_sets)
from .verify import (Id2Report, InsufficientRadiusError, ReportLine,
                     check_id2, density_estimate, id3_values, point_weights,
                     render_report, sample_density, weyl_test)

__version__ = "0.1.0"
