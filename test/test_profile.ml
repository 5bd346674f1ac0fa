(* The deterministic sim-cost profiler and its per-trace cost ledger:
   scope-tree semantics and folded/speedscope exports, the fig2
   end-to-end artifact (schema-valid dgc.profile/1, ledger totals
   cross-checked against the collector's own trace stats), the two
   determinism contracts — same seed => byte-identical work sections,
   profiler off => event-identical schedule — the diff verdict, ledger
   arithmetic, and the run artifact's embedded profile section. *)

open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
module Prof = Dgc_profile.Profile
module Ledg = Dgc_profile.Ledger
module Json = Dgc_telemetry.Json
module Run_artifact = Dgc_telemetry.Run_artifact

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let cfg_fig =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
  }

let run_fig2 ~profile () =
  let cfg = { cfg_fig with Config.profile } in
  let f = Scenario.fig2 ~cfg () in
  let sim = f.Scenario.f2_sim in
  Sim.start sim;
  Sim.run_rounds sim 8;
  sim

(* --- scopes and exports ------------------------------------------------ *)

let test_scopes_and_folded () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.with_scope p "deliver" (fun () ->
      Prof.work p "events" 1;
      Prof.with_scope p "update" (fun () -> Prof.work p "edges" 3));
  Prof.with_scope p "deliver" (fun () -> Prof.work p "events" 2);
  Alcotest.(check int) "depth back to zero" 0 (Prof.depth p);
  Alcotest.(check (list string))
    "units sorted" [ "edges"; "events" ] (Prof.units p);
  let folded = Prof.to_folded p in
  Alcotest.(check bool) "nested path weighted by self work" true
    (contains ~sub:"all;deliver;update 3" folded);
  Alcotest.(check bool) "repeat scopes merge into one node" true
    (contains ~sub:"all;deliver 3" folded);
  let only_edges = Prof.to_folded ~unit_:"edges" p in
  Alcotest.(check bool) "unit filter keeps the edge node" true
    (contains ~sub:"all;deliver;update 3" only_edges);
  Alcotest.(check bool) "unit filter drops event-only nodes" false
    (contains ~sub:"all;deliver 3" only_edges);
  match Prof.leave p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "leave on an empty scope stack accepted"

let test_speedscope_shape () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.with_scope p "deliver" (fun () -> Prof.work p "events" 4);
  let doc = Prof.to_speedscope ~name:"unit" p in
  let member k = Json.member k doc in
  Alcotest.(check bool) "declares the speedscope schema" true
    (match Option.bind (member "$schema") Json.to_str_opt with
    | Some s -> contains ~sub:"speedscope" s
    | None -> false);
  Alcotest.(check bool) "has shared.frames" true
    (Option.bind (member "shared") (Json.member "frames") <> None);
  match Option.bind (member "profiles") Json.to_list_opt with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "profiles array missing or empty"

(* --- fig2 end to end --------------------------------------------------- *)

let test_fig2_artifact () =
  let sim = run_fig2 ~profile:true () in
  let p =
    match Engine.profile sim.Sim.eng with
    | Some p -> p
    | None -> Alcotest.fail "Sim.make did not attach a profiler"
  in
  let doc = Prof.to_json ~name:"fig2" p in
  (match Prof.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dgc.profile/1 invalid: %s" e);
  let folded = Prof.to_folded p in
  Alcotest.(check bool) "folded stacks non-empty" true (folded <> "\n");
  Alcotest.(check bool) "all root line present" true
    (String.starts_with ~prefix:"all " folded);
  Alcotest.(check bool) "deliver phase attributed" true
    (contains ~sub:"all;deliver" folded);
  (* The ledger's frame total must mirror the collector's own stats:
     both are bumped at the same §4.4 sites. *)
  let r = Ledg.rollup (Prof.ledger p) in
  let frames =
    List.fold_left
      (fun a (_, st) -> a + st.Back_trace.ts_frames)
      0
      (Back_trace.stats (Collector.back sim.Sim.col))
  in
  Alcotest.(check int) "ledger frames mirror trace stats" frames r.Ledg.r_frames;
  Alcotest.(check bool) "fig2 cycle collected" true (r.Ledg.r_collected >= 1);
  Alcotest.(check bool) "per-cycle message budget positive" true
    (r.Ledg.r_msgs_per_cycle_milli > 0);
  match Ledg.validate (Ledg.to_json (Prof.ledger p)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ledger section invalid: %s" e

(* --- determinism ------------------------------------------------------- *)

let test_same_seed_fingerprint () =
  let fp () =
    let sim = run_fig2 ~profile:true () in
    Prof.work_fingerprint (Option.get (Engine.profile sim.Sim.eng))
  in
  Alcotest.(check string) "byte-identical work sections" (fp ()) (fp ())

let test_profiler_schedule_neutral () =
  let run profile =
    let sim = run_fig2 ~profile () in
    let eng = sim.Sim.eng in
    ( Sim_time.to_seconds (Engine.now eng),
      List.sort compare (Metrics.counters (Engine.metrics eng)) )
  in
  let clock_on, counters_on = run true in
  let clock_off, counters_off = run false in
  Alcotest.(check (float 0.)) "same simulated clock" clock_on clock_off;
  Alcotest.(check (list (pair string int)))
    "event-identical counters" counters_on counters_off

(* --- local-trace phase scopes ------------------------------------------ *)

(* Each phase scope of a profiled local trace must hold the cost of the
   phase it names. With minor words as the profiler's clock the cost is
   deterministic, so each scope is checked against a [compute ~probe]
   replay on the same input: the probe ticks as a phase ends. *)
let test_local_trace_phase_scopes () =
  let cfg = { cfg_fig with Config.n_sites = 3; threshold2 = 1_000 } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  ignore
    (Graph_gen.hypertext eng
       ~rng:(Dgc_prelude.Rng.create ~seed:5)
       ~docs_per_site:30 ~pages_per_doc:6 ~cross_links:60 ~rooted_frac:0.8);
  Sim.start sim;
  Sim.run_rounds sim 6;
  let site = Engine.site eng (Dgc_prelude.Site_id.of_int 0) in
  let inp = Local_trace.input_of_site eng site in
  let replay () =
    let last = ref (Gc.minor_words ()) and phases = ref [] in
    let probe tag =
      let w = Gc.minor_words () in
      phases := (tag, w -. !last) :: !phases;
      last := Gc.minor_words ()
    in
    ignore (Local_trace.compute ~probe inp);
    List.rev !phases
  in
  ignore (replay ());
  let replayed = replay () in
  let p = Prof.create ~clock:(fun () -> Gc.minor_words ()) () in
  Engine.attach_profile eng p;
  Collector.force_local_trace sim.Sim.col site.Site.id;
  let scope_words path =
    let nodes =
      match Json.member "nodes" (Prof.to_json p) with
      | Some (Json.Arr l) -> l
      | _ -> Alcotest.fail "profile has no nodes"
    in
    match
      List.find_opt
        (fun n -> Json.member "path" n = Some (Json.Str path))
        nodes
    with
    | None -> Alcotest.failf "no %s scope" path
    | Some n -> (
        match Option.bind (Json.member "wall_ns" n) Json.to_int_opt with
        | Some ns -> float_of_int ns /. 1e9
        | None -> Alcotest.failf "%s has no wall" path)
  in
  let tolerance = 50. in
  List.iter
    (fun (tag, words) ->
      List.iter
        (fun (other, w) ->
          if other <> tag && Float.abs (w -. words) <= 4. *. tolerance then
            Alcotest.failf "replay phases %s and %s too alike to tell apart"
              tag other)
        replayed;
      let got = scope_words ("all;local_trace;" ^ tag) in
      if Float.abs (got -. words) > tolerance then
        Alcotest.failf "scope %s holds %.0f words, its phase %.0f" tag got
          words)
    replayed

(* --- diff -------------------------------------------------------------- *)

let mkprof phases =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  List.iter
    (fun (phase, n) ->
      Prof.with_scope p phase (fun () -> Prof.work p "events" n))
    phases;
  Prof.to_json ~wall:false p

let test_diff_verdict () =
  let base = mkprof [ ("deliver", 90); ("local_trace", 10) ] in
  let same = mkprof [ ("deliver", 90); ("local_trace", 10) ] in
  let skew = mkprof [ ("deliver", 50); ("local_trace", 50) ] in
  (match Prof.diff base same with
  | Ok r ->
      Alcotest.(check bool) "identical: not regressed" false r.Prof.df_regressed;
      Alcotest.(check (float 0.)) "zero drift" 0. r.Prof.df_max_share_drift;
      Alcotest.(check int) "no deltas" 0 (List.length r.Prof.df_deltas)
  | Error e -> Alcotest.failf "self diff: %s" e);
  (match Prof.diff ~share_tolerance:0.10 base skew with
  | Ok r ->
      Alcotest.(check bool) "40-point share shift regresses" true
        r.Prof.df_regressed;
      Alcotest.(check bool) "deltas reported" true (r.Prof.df_deltas <> []);
      Alcotest.(check bool) "drift beyond tolerance" true
        (r.Prof.df_max_share_drift > 0.10);
      (* pp_diff must render without raising and carry the verdict *)
      let s = Format.asprintf "%a" Prof.pp_diff r in
      Alcotest.(check bool) "pp_diff carries the verdict" true
        (contains ~sub:"REGRESSION" s)
  | Error e -> Alcotest.failf "skew diff: %s" e);
  match Prof.diff base (Json.Int 3) with
  | Ok _ -> Alcotest.fail "diff accepted a non-profile document"
  | Error _ -> ()

(* --- ledger arithmetic ------------------------------------------------- *)

let test_ledger_arithmetic () =
  let l = Ledg.create () in
  Ledg.on_start l ~trace:"t1" ~root:"0.1" ~at:1.0;
  Ledg.on_msg l ~trace:"t1" ~kind:"back_call" ~bytes:32;
  Ledg.on_msg l ~trace:"t1" ~kind:"back_call" ~bytes:32;
  Ledg.on_msg l ~trace:"t1" ~kind:"back_reply" ~bytes:16;
  Ledg.on_frame l ~trace:"t1";
  Ledg.on_call l ~trace:"t1";
  Ledg.on_retry l ~trace:"t1";
  Ledg.on_memo_hit l ~trace:"t1";
  Ledg.on_timeout l ~trace:"t1";
  Ledg.on_report l ~trace:"t1";
  Ledg.on_conclude l ~trace:"t1" ~outcome:"garbage" ~at:2.5;
  (* duplicate reports re-conclude: first verdict wins *)
  Ledg.on_conclude l ~trace:"t1" ~outcome:"live" ~at:9.9;
  Ledg.on_start l ~trace:"t2" ~root:"0.2" ~at:1.5;
  Ledg.on_msg l ~trace:"t2" ~kind:"back_call" ~bytes:10;
  Ledg.on_conclude l ~trace:"t2" ~outcome:"live" ~at:2.0;
  let e =
    match Ledg.find l "t1" with
    | Some e -> e
    | None -> Alcotest.fail "t1 missing"
  in
  Alcotest.(check int) "message total" 3 (Ledg.msg_total e);
  Alcotest.(check int) "byte total" 80 (Ledg.byte_total e);
  Alcotest.(check (option string)) "first conclusion wins" (Some "garbage")
    e.Ledg.e_outcome;
  Alcotest.(check (option (float 1e-9))) "critical path in ms" (Some 1500.)
    (Ledg.critical_path_ms e);
  Alcotest.(check bool) "describe names the retry" true
    (contains ~sub:"retr" (Ledg.describe e));
  let r = Ledg.rollup l in
  Alcotest.(check int) "traces" 2 r.Ledg.r_traces;
  Alcotest.(check int) "collected" 1 r.Ledg.r_collected;
  Alcotest.(check int) "live" 1 r.Ledg.r_live;
  Alcotest.(check int) "msgs" 4 r.Ledg.r_msgs;
  Alcotest.(check int) "bytes" 90 r.Ledg.r_bytes;
  Alcotest.(check int) "msgs per collected cycle (milli)" 4000
    r.Ledg.r_msgs_per_cycle_milli;
  Alcotest.(check int) "bytes per collected cycle (milli)" 90_000
    r.Ledg.r_bytes_per_cycle_milli;
  (match Ledg.validate (Ledg.to_json l) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ledger json: %s" e);
  (* entries are sorted by trace id — the deterministic export order *)
  Alcotest.(check (list string)) "entries sorted" [ "t1"; "t2" ]
    (List.map (fun e -> e.Ledg.e_trace) (Ledg.entries l))

(* --- run artifact embed ------------------------------------------------ *)

let test_artifact_profile_section () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.with_scope p "deliver" (fun () -> Prof.work p "events" 5);
  let m = Metrics.create () in
  Metrics.incr m "msg.total";
  let art =
    Run_artifact.make ~name:"unit" ~sim_seconds:1.
      ~profile:(Prof.to_json ~wall:false p)
      m
  in
  (match Run_artifact.validate art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "artifact with profile: %s" e);
  (match Run_artifact.profile_section art with
  | Some sec -> (
      match Prof.validate sec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "embedded profile: %s" e)
  | None -> Alcotest.fail "profile section missing");
  (* A profile section without the dgc.profile/1 tag must be rejected. *)
  let bad =
    Run_artifact.make ~name:"unit" ~sim_seconds:1.
      ~profile:(Json.Obj [ ("schema", Json.Str "bogus") ])
      m
  in
  match Run_artifact.validate bad with
  | Ok () -> Alcotest.fail "mistagged profile section accepted"
  | Error _ -> ()

let () =
  Alcotest.run "profile"
    [
      ( "scopes",
        [
          Alcotest.test_case "scope tree and folded export" `Quick
            test_scopes_and_folded;
          Alcotest.test_case "speedscope shape" `Quick test_speedscope_shape;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "schema-valid artifact and ledger" `Quick
            test_fig2_artifact;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same work fingerprint" `Quick
            test_same_seed_fingerprint;
          Alcotest.test_case "profiler is schedule-neutral" `Quick
            test_profiler_schedule_neutral;
        ] );
      ( "local_trace",
        [
          Alcotest.test_case "phase scopes match a probe replay" `Quick
            test_local_trace_phase_scopes;
        ] );
      ( "diff",
        [ Alcotest.test_case "share-drift verdict" `Quick test_diff_verdict ] );
      ( "ledger",
        [
          Alcotest.test_case "arithmetic and rollup" `Quick
            test_ledger_arithmetic;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "embedded profile section" `Quick
            test_artifact_profile_section;
        ] );
    ]
