(** The lossless sketch: stores the graph itself, as one frozen
    {!Dcs_graph.Csr} snapshot (later mutations of the caller's digraph do
    not reach the sketch).

    Queries are exact ((1 ± 0) in both the for-each and for-all sense) and
    the size is the canonical graph encoding. This is the
    information-theoretic reference point: on a lower-bound instance, the
    number of bits the decoder extracts can approach but never exceed this
    size. *)

val create : Dcs_graph.Digraph.t -> Sketch.t
