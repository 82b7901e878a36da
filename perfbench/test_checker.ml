(* The checker must reject every corrupted observation and accept a clean
   history; a checker that accepts everything must not ship. *)

let () =
  Alcotest.run "perfbench checker"
    [
      ( "rejects",
        List.map
          (fun (name, rejected) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check bool) "rejected" true (rejected ())))
          Iwbench.Selftest.corrupted );
      ( "accepts",
        [
          Alcotest.test_case "clean history" `Quick (fun () ->
              Alcotest.(check bool) "accepted" true (Iwbench.Selftest.clean ()));
        ] );
    ]
