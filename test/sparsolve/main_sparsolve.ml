let () =
  Alcotest.run "dcs-sparsolve"
    [ ("sampling", Test_psample.suite); ("solve", Test_psolve.suite);
      ("oracle", Test_poracle.suite); ("exact", Test_pexact.suite) ]
