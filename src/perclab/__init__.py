"""perclab: spectral laboratory for site-percolation Hamiltonians on Z^d."""

__version__ = "0.1.0"

from .errors import (HypothesisViolationError, InternalCheckError, PerclabError,
                     PreconditionError, ResourceGuardError)
from .model import (Configuration, HoppingKernel, LatticeRegion,
                    PotentialDistribution, adjacency_kernel,
                    bernoulli_distribution, boundary, sample_configuration,
                    validate_kernel)
from .operator import SymmetricOperatorMatrix, assemble
from .percolation import (ClusterLabeling, SubgraphCatalog, connected_region,
                          enumerate_connected_subgraphs, finite_cluster_profile,
                          label_clusters)
from .spectra import (AlgebraicNumber, BlockSpectra, FiniteSpectrumCatalog,
                      SpectrumSample, algebraic_constant, charpoly_exact,
                      cluster_spectrum_catalog, eigs_dense, kernel_dim_exact,
                      luck_bound, mirror_embed)
from .experiments import (DEFAULTS, ClusterDensityProfile, EmpiricalIDS,
                          ExperimentParams, JumpEstimate, WegnerReport,
                          cluster_density_profile, continuity_probe,
                          convergence_study, estimate_ids, ids_jump,
                          jump_window_for_catalog, log_hoelder_check,
                          wegner_experiment)
