"""GPT-2-like decoder-only Transformer (extension workload).

Not part of the paper's evaluation grid, but the paper motivates RaNNC
with GPT-3-scale models; this graph demonstrates that the partitioner is
architecture-agnostic (pre-LN blocks, causal mask, no NSP head).
"""

from __future__ import annotations

import math

from repro.graph.builder import GraphBuilder, Sym
from repro.graph.ir import DataType, TaskGraph
from repro.models.configs import GPTConfig


def _decoder_layer(b: GraphBuilder, cfg: GPTConfig, x: Sym, mask: Sym, idx: int) -> Sym:
    """Pre-LN decoder layer with causal self-attention."""
    h, a, dh, s = cfg.hidden_size, cfg.num_heads, cfg.head_dim, cfg.seq_len
    p = f"layer{idx}"

    ln1 = b.layernorm(x, name=f"{p}.ln1")
    q = b.linear(ln1, h, name=f"{p}.attn.q")
    k = b.linear(ln1, h, name=f"{p}.attn.k")
    v = b.linear(ln1, h, name=f"{p}.attn.v")

    qh = b.op("reshape", [q], {"shape": (1, s, a, dh)}, name=f"{p}.attn.q_split")
    qh = b.op("transpose", [qh], {"perm": (0, 2, 1, 3)}, name=f"{p}.attn.q_perm")
    kh = b.op("reshape", [k], {"shape": (1, s, a, dh)}, name=f"{p}.attn.k_split")
    kh = b.op("transpose", [kh], {"perm": (0, 2, 3, 1)}, name=f"{p}.attn.k_perm")
    vh = b.op("reshape", [v], {"shape": (1, s, a, dh)}, name=f"{p}.attn.v_split")
    vh = b.op("transpose", [vh], {"perm": (0, 2, 1, 3)}, name=f"{p}.attn.v_perm")

    scores = b.op("matmul", [qh, kh], name=f"{p}.attn.scores")
    scores = b.op(
        "scale", [scores], {"factor": 1.0 / math.sqrt(dh)}, name=f"{p}.attn.scale"
    )
    scores = b.op("add", [scores, mask], name=f"{p}.attn.causal_mask")
    probs = b.op("softmax", [scores], name=f"{p}.attn.softmax")
    ctx = b.op("matmul", [probs, vh], name=f"{p}.attn.context")
    ctx = b.op("transpose", [ctx], {"perm": (0, 2, 1, 3)}, name=f"{p}.attn.merge_perm")
    ctx = b.op("reshape", [ctx], {"shape": (1, s, h)}, name=f"{p}.attn.merge")
    attn_out = b.linear(ctx, h, name=f"{p}.attn.out")
    x = b.op("add", [x, attn_out], name=f"{p}.attn.residual")

    ln2 = b.layernorm(x, name=f"{p}.ln2")
    ff = b.linear(ln2, 4 * h, name=f"{p}.ffn.up")
    ff = b.op("gelu", [ff], name=f"{p}.ffn.gelu")
    ff = b.linear(ff, h, name=f"{p}.ffn.down")
    return b.op("add", [x, ff], name=f"{p}.ffn.residual")


def gpt3_like(
    depth: int = 96,
    hidden_size: int = 1536,
    num_heads: int = 16,
    seq_len: int = 512,
    vocab_size: int = 32000,
) -> TaskGraph:
    """Synthetic GPT-3-shaped decoder graph with a configurable depth.

    The planner-scaling workload (the ledger's ``gpt10k-cold``,
    docs/SCALING.md): each decoder layer traces to ~25 tasks, so
    ``depth=420`` yields a >10k-task graph -- the regime where dense
    ``(k+1, k+1, D+1)`` candidate-stage tensors would not fit and the
    DP's banded profiles matter.
    The per-layer width is kept at trainable-on-V100 scale so the stage
    search exercises real feasibility trade-offs instead of failing on
    memory outright.
    """
    cfg = GPTConfig(
        hidden_size=hidden_size,
        num_layers=depth,
        num_heads=num_heads,
        seq_len=seq_len,
        vocab_size=vocab_size,
    )
    return build_gpt(cfg)


def build_gpt(cfg: GPTConfig = GPTConfig()) -> TaskGraph:
    """Trace a GPT-2-like language-modeling graph (next-token loss)."""
    b = GraphBuilder(cfg.name)
    h, s = cfg.hidden_size, cfg.seq_len

    input_ids = b.input("input_ids", (1, s), DataType.INT64)
    # additive causal mask (upper-triangular -inf), supplied as model input
    causal_mask = b.input("causal_mask", (1, 1, s, s))
    labels = b.input("labels", (1, s), DataType.INT64)

    tok_table = b.param("wte", (cfg.vocab_size, h))
    pos_table = b.param("wpe", (s, h))

    x = b.op("embedding", [input_ids, tok_table], name="embed.tok")
    x = b.op("add", [x, pos_table], name="embed.add_pos")

    for layer in range(cfg.num_layers):
        x = _decoder_layer(b, cfg, x, causal_mask, layer)

    x = b.layernorm(x, name="final_ln")
    lm_w = b.op("transpose", [tok_table], name="lm_head.weight_t")
    logits = b.op("matmul", [x, lm_w], name="lm_head")
    loss = b.op("cross_entropy", [logits, labels], name="lm_loss")
    return b.finish([loss])
