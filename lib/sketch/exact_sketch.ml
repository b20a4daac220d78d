let create g =
  Dcs_obs_core.Trace.with_span "sketch.exact.create" @@ fun () ->
  Sketch.of_csr ~name:"exact"
    ~size_bits:(Sketch.digraph_encoding_bits g)
    (Dcs_graph.Csr.of_digraph g)
