(* Corrupted observations the checker must reject, and one clean history it
   must accept.  Run by the benchmark before every measurement (a checker
   that accepts everything must not produce numbers) and by
   test_checker.exe under [dune runtest]. *)

let scatter_state = { Checker.keys = [| 10; 11; 12; 13 |]; nexts = [| 1; 2; 3; 0 |] }

let val_of i = float_of_int i /. 4.

let addr_of j = 0x1000 + (24 * j)

let elem ?(next_shift = 0) i =
  {
    Checker.e_index = i;
    e_key = scatter_state.keys.(i);
    e_val = val_of i;
    e_next = addr_of ((scatter_state.nexts.(i) + next_shift) mod 4);
  }

(* A segment of 4 words with versions 1..5 committed and acknowledged. *)
let words_history () =
  let t = Checker.create () in
  for v = 1 to 5 do
    Checker.commit t ~seg:"s" ~version:v [| v; 2 * v; 3 * v; 4 * v |];
    Checker.ack t ~seg:"s" ~version:v
  done;
  t

let words_of v = [| v; 2 * v; 3 * v; 4 * v |]

let read t ?(reader = "r") ?(round_trip = true) ?(bound = 0) ?(acked_before = 5) ~version
    observed =
  Checker.observe t ~reader ~seg:"s" ~version ~round_trip ~acked_before ~bound
    ~check:(fun expected -> Checker.words ~expected ~observed)

(* Each case builds a fresh checker, feeds it observations, and returns it. *)
let corrupted : (string * (unit -> bool)) list =
  let rejects f = not (Checker.ok (Checker.tally (f ()))) in
  [
    ( "wrong word",
      fun () ->
        rejects (fun () ->
            let t = words_history () in
            let w = words_of 5 in
            w.(2) <- w.(2) + 1;
            read t ~version:5 w;
            t) );
    ( "pointer swizzled to the wrong element",
      fun () ->
        rejects (fun () ->
            let t = Checker.create () in
            Checker.commit t ~seg:"a" ~version:1 scatter_state;
            Checker.ack t ~seg:"a" ~version:1;
            let observed = [| elem 0; elem ~next_shift:1 1; elem 2 |] in
            Checker.observe t ~reader:"r" ~seg:"a" ~version:1 ~round_trip:true ~acked_before:1
              ~bound:0
              ~check:(fun expected -> Checker.scatter ~val_of ~addr_of expected observed);
            t) );
    ( "version going backwards",
      fun () ->
        rejects (fun () ->
            let t = words_history () in
            read t ~round_trip:false ~bound:5 ~version:4 (words_of 4);
            read t ~round_trip:false ~bound:5 ~version:3 (words_of 3);
            t) );
    ( "Delta 2 read 3 versions behind after a round trip",
      fun () ->
        rejects (fun () ->
            let t = words_history () in
            read t ~bound:2 ~acked_before:5 ~version:2 (words_of 2);
            t) );
    ( "acknowledged write missing after the restart",
      fun () ->
        rejects (fun () ->
            let t = words_history () in
            Checker.final t ~seg:"s" ~version:4 ~check:(fun expected ->
                Checker.words ~expected ~observed:(words_of 4));
            t) );
    ( "version never committed",
      fun () ->
        rejects (fun () ->
            let t = words_history () in
            read t ~acked_before:5 ~version:6 (words_of 6);
            t) );
    ( "wrong top-k answer",
      fun () ->
        rejects (fun () ->
            let t = Checker.create () in
            Checker.commit t ~seg:"m" ~version:1 [ ([ 1 ], 9); ([ 2 ], 7) ];
            Checker.ack t ~seg:"m" ~version:1;
            Checker.observe t ~reader:"r" ~seg:"m" ~version:1 ~round_trip:true ~acked_before:1
              ~bound:2 ~check:(fun expected ->
                Checker.top ~expected ~observed:[ ([ 1 ], 9); ([ 2 ], 6) ]);
            t) );
  ]

(* A clean history, including a Delta 2 read two versions behind and a
   cache-served Full read one version behind, which is counted and not
   rejected. *)
let clean () =
  let t = words_history () in
  read t ~bound:2 ~version:3 (words_of 3);
  read t ~version:5 (words_of 5);
  read t ~reader:"q" ~round_trip:false ~version:4 (words_of 4);
  Checker.final t ~seg:"s" ~version:5 ~check:(fun expected ->
      Checker.words ~expected ~observed:(words_of 5));
  let r = Checker.tally t in
  Checker.ok r && r.Checker.stale_reads = 1 && r.Checker.stale_max = 1

(* Names of the cases the checker got wrong; empty when it is sound. *)
let failures () =
  List.filter_map (fun (name, rejected) -> if rejected () then None else Some name) corrupted
  @ if clean () then [] else [ "clean history rejected" ]
