"""Prefix normal forms of binary words, and the factor Parikh-vector
index they characterize.  Names load on first access (PEP 562)."""

import importlib

_EXPORTS = {
    "words": "ALPHABET_MAPS ParikhVector ParseError a_positions complement "
             "parikh parse_word pos_a prefix_count prefix_counts reverse",
    "profiles": "OnesProfile max_a_profile max_b_profile min_a_profile",
    "pnf": "PnfPair PrefixNormalTester build_pnf_a build_pnf_b "
           "can_extend_with_a is_prefix_normal normality_witness pnf_pair",
    "jpm": "JumbledIndex build_index index_from_json index_from_pnf query "
           "index_to_json parikh_set_equal parikh_set_oracle pnf_from_index",
    "lyndon": "WordClass classify is_lyndon is_necklace is_pre_necklace",
    "census": "ClassCensus CountsRow TableExpectations VerificationReport "
              "class_census class_members count_pre_necklaces "
              "count_prefix_normal counts_table iter_pre_necklaces "
              "iter_prefix_normal max_class_size verify_tables",
    "geometry": "RegionProfile region region_csv render_svg word_path",
}
_OWNER = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_OWNER[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
