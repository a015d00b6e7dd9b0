"""korpus: deterministic corpus curation for quality- and variety-focused datasets."""

from .core import CorpusShard, Document, Domain, PipelineConfig, read_shard, tokenize, write_shard

__version__ = "0.4.0"

__all__ = [
    "CorpusShard",
    "Document",
    "Domain",
    "PipelineConfig",
    "read_shard",
    "tokenize",
    "write_shard",
    "__version__",
]
