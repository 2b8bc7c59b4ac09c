"""Boolean dense retrieval toolkit.

Indexes a passage corpus under a deterministic or remote embedder, executes
Boolean-structured queries by merging per-atom candidate lists with set
algebra, evaluates runs with MRR@k and NegRecall@k, and synthesizes
Boolean-question benchmark datasets from any corpus.
"""

from .chat import ChatClient
from .data import (
    Corpus,
    DatasetStats,
    Judgment,
    Passage,
    QuestionType,
    compute_stats,
    load_corpus,
    load_judgments,
    save_judgments,
)
from .embed import EmbedderSpec, embed_texts, hashed_bow_embed
from .errors import BoolSearchError
from .generate import (
    Cluster,
    GeneratedQuestion,
    GeneratorSpec,
    apply_cyclic_filter,
    assemble_dataset,
    cluster_corpus,
    cluster_passages,
    cyclic_filter,
    gen_and,
    gen_atomic,
    gen_not,
    gen_or,
    generate_questions,
    reduce_dims,
    sample_candidates,
)
from .index import (
    Index,
    RankedList,
    ScoredDoc,
    build_index,
    load_index,
    save_index,
    top_k,
)
from .metrics import (
    EvalReport,
    evaluate_run,
    load_run,
    mrr_at_k,
    neg_recall_at_k,
    render_report,
    save_run,
)
from .query import (
    And,
    Atom,
    BooleanExpr,
    MergePolicy,
    Not,
    Or,
    decompose_question,
    evaluate_expr,
    merge_and,
    merge_not,
    merge_or,
    parse_boolean_query,
    render,
    retrieve_atom,
    whole_query_retrieve,
)

__version__ = "0.1.0"
