"""Exact-arithmetic toolkit for even lattices, discriminant forms, and the
monodromy bookkeeping of moduli of sheaves on abelian surfaces."""

from .lattices import IntegerLattice, Embedding, LatticeError, direct_sum, \
    hyperbolic_plane, hyperbolic_sum, rank_one
from .isometries import (Isometry, IsometryError, OrientationDatum,
                         reflection, minus_reflection, ori_char, det_char,
                         identity_isometry, minus_identity, positive_frame)
from .discriminant import (DiscriminantData, DiscMap, GlueData, disc_group,
                           disc_map, enum_disc_autos, glue, extend_isometry,
                           ExtensionObstructed, NotFound, in_W, in_N,
                           index_monodromy)
from .mukai import (MukaiModel, MukaiVector, MkTriple, mukai_pairing, v_perp,
                    fm_action, hodge_ori, epsilon_ori, DecisionDegenerate)
from .monodromy import (GroupoidWord, MonodromyCertificate, eval_phi_tilde,
                        psi_restrict, certify, propdual_word,
                        surface_lift_in_N, istar_similitude, isharp)
from .lemsimo import (LemsimoProblem, LemsimoSolution, build_targets,
                      find_companion, solve, TargetsNotIntegral)

__version__ = "0.1.0"
