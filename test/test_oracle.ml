(* The verification oracle itself: global reachability including
   agent variables and in-flight messages, the safety check, and
   table-integrity detection. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    latency = Latency.Fixed (Sim_time.of_millis 10.);
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_live_set_basics () =
  let eng = Engine.create (cfg 2) in
  let root = Builder.root_obj eng (s 0) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  let orphan = Builder.obj eng (s 1) in
  Builder.link eng ~src:root ~dst:a;
  Builder.link eng ~src:a ~dst:b;
  let live = Dgc_oracle.Oracle.live_set eng in
  Alcotest.(check bool) "root live" true (Oid.Set.mem root live);
  Alcotest.(check bool) "a live" true (Oid.Set.mem a live);
  Alcotest.(check bool) "b live cross-site" true (Oid.Set.mem b live);
  Alcotest.(check bool) "orphan dead" false (Oid.Set.mem orphan live);
  Alcotest.(check int) "garbage count" 1 (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check (list int)) "garbage site" [ 1 ]
    (List.map Site_id.to_int
       (Site_id.Set.elements (Dgc_oracle.Oracle.cyclic_garbage_sites eng)))

let test_agent_vars_are_roots () =
  let eng = Engine.create (cfg 1) in
  let muts = Mutator.manager eng in
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.new_obj a ~dst:"v");
  let o = Option.get (Mutator.var a "v") in
  Alcotest.(check bool) "var-held object is live" true
    (Oid.Set.mem o (Dgc_oracle.Oracle.live_set eng));
  ignore (Mutator.drop a "v");
  Alcotest.(check bool) "dropped object is garbage" false
    (Oid.Set.mem o (Dgc_oracle.Oracle.live_set eng))

let test_in_flight_refs_are_roots () =
  let eng = Engine.create (cfg 2) in
  let muts = Mutator.manager eng in
  let root = Builder.root_obj eng (s 0) in
  let x = Builder.obj eng (s 0) in
  Builder.link eng ~src:root ~dst:x;
  let beacon = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root ~dst:beacon;
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:1 ~dst:"x");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"b");
  (* Sever the heap path; only the variables hold x now. Then travel:
     during the flight the refs live in the Move message. *)
  Builder.unlink eng ~src:root ~dst:x;
  ignore (Mutator.travel a ~via:"b" ~k:(fun () -> ()));
  Alcotest.(check bool) "traveling" true (Mutator.traveling a);
  Alcotest.(check bool) "x kept live by the in-flight move" true
    (Oid.Set.mem x (Dgc_oracle.Oracle.live_set eng));
  Engine.run_for eng (Sim_time.of_seconds 2.);
  Alcotest.(check bool) "x kept live by the arrived variable" true
    (Oid.Set.mem x (Dgc_oracle.Oracle.live_set eng))

let test_check_would_free_raises () =
  let eng = Engine.create (cfg 1) in
  let root = Builder.root_obj eng (s 0) in
  let a = Builder.obj eng (s 0) in
  Builder.link eng ~src:root ~dst:a;
  let dead = Builder.obj eng (s 0) in
  (* Freeing the dead object is fine... *)
  Dgc_oracle.Oracle.check_would_free eng (s 0) [ Oid.index dead ];
  (* ...freeing the live one raises. *)
  Alcotest.(check bool) "live free detected" true
    (try
       Dgc_oracle.Oracle.check_would_free eng (s 0) [ Oid.index a ];
       false
     with Dgc_oracle.Oracle.Safety_violation _ -> true)

(* Nothing to free cannot free a live object, so the check skips the
   global live-set walk: no allocation however large the heap. *)
let test_check_would_free_nothing () =
  let eng = Engine.create (cfg 2) in
  let prev = ref (Builder.root_obj eng (s 0)) in
  for i = 1 to 2_000 do
    let o = Builder.obj eng (s (i mod 2)) in
    Builder.link eng ~src:!prev ~dst:o;
    prev := o
  done;
  let w0 = Gc.minor_words () in
  Dgc_oracle.Oracle.check_would_free eng (s 0) [];
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no live-set walk (%.0f words)" words)
    true (words < 64.)

let test_assert_no_garbage () =
  let eng = Engine.create (cfg 1) in
  let _root = Builder.root_obj eng (s 0) in
  Dgc_oracle.Oracle.assert_no_garbage eng;
  let _orphan = Builder.obj eng (s 0) in
  Alcotest.(check bool) "garbage detected" true
    (try
       Dgc_oracle.Oracle.assert_no_garbage eng;
       false
     with Dgc_oracle.Oracle.Safety_violation _ -> true)

let test_table_violations_detect_corruption () =
  let eng = Engine.create (cfg 2) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  Builder.link eng ~src:a ~dst:b;
  Alcotest.(check int) "consistent after builder" 0
    (List.length (Dgc_oracle.Oracle.table_violations eng));
  (* Corrupt: remove the outref behind the heap's back. *)
  Tables.remove_outref (Engine.site eng (s 0)).Site.tables b;
  let violations = Dgc_oracle.Oracle.table_violations eng in
  Alcotest.(check bool) "missing outref detected" true
    (List.exists
       (fun v -> contains v "lacks an outref" || contains v "no outref")
       violations)

let test_table_violations_detect_missing_source () =
  let eng = Engine.create (cfg 2) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  Builder.link eng ~src:a ~dst:b;
  (match Tables.find_inref (Engine.site eng (s 1)).Site.tables b with
  | Some ir -> Ioref.remove_source ir (s 0)
  | None -> Alcotest.fail "inref missing");
  Alcotest.(check bool) "missing source detected" true
    (Dgc_oracle.Oracle.table_violations eng <> [])

let () =
  Alcotest.run "oracle"
    [
      ( "reachability",
        [
          Alcotest.test_case "basics" `Quick test_live_set_basics;
          Alcotest.test_case "agent variables" `Quick test_agent_vars_are_roots;
          Alcotest.test_case "in-flight references" `Quick
            test_in_flight_refs_are_roots;
        ] );
      ( "checks",
        [
          Alcotest.test_case "check_would_free" `Quick
            test_check_would_free_raises;
          Alcotest.test_case "check_would_free nothing to free" `Quick
            test_check_would_free_nothing;
          Alcotest.test_case "assert_no_garbage" `Quick test_assert_no_garbage;
          Alcotest.test_case "detect missing outref" `Quick
            test_table_violations_detect_corruption;
          Alcotest.test_case "detect missing source" `Quick
            test_table_violations_detect_missing_source;
        ] );
    ]
