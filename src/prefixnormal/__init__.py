"""Prefix normal forms of binary words, and the factor Parikh-vector
index they characterize."""

from .words import (ALPHABET_MAPS, ParikhVector, ParseError, a_positions,
                    complement, parikh, parse_word, pos_a, prefix_count,
                    prefix_counts, reverse)
from .profiles import OnesProfile, max_a_profile, max_b_profile, min_a_profile
from .pnf import (PnfPair, PrefixNormalTester, build_pnf_a, build_pnf_b,
                  can_extend_with_a, is_prefix_normal, normality_witness,
                  pnf_pair)
from .jpm import (JumbledIndex, build_index, index_from_json, index_from_pnf,
                  index_to_json, parikh_set_equal, parikh_set_oracle,
                  pnf_from_index, query)
from .lyndon import (WordClass, classify, is_lyndon, is_necklace,
                     is_pre_necklace)
from .census import (ClassCensus, CountsRow, TableExpectations,
                     VerificationReport, class_census, class_members,
                     count_pre_necklaces, count_prefix_normal, counts_table,
                     iter_pre_necklaces, iter_prefix_normal, max_class_size,
                     verify_tables)
from .geometry import RegionProfile, region, region_csv, render_svg, word_path

__version__ = "0.1.0"
