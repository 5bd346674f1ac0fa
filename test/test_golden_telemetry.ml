(* Golden telemetry for the back trace.

   Every sink the back trace feeds — metrics counters and histograms,
   the time series, the journal, the span tree (as its Chrome export),
   the flight recorder, the wall-free profile with its per-trace
   ledger, and [Back_trace.stats] — is pinned here by digest, so a
   refactor of the instrumentation cannot change what any sink
   records, nor the order in which the flight ring interleaves
   journal lines and span edges.

   Two families of runs:
   - figs 1-6, collected to completion and then traced for a few more
     rounds (live-suspect traces after the garbage is gone);
   - fault plans: three corpus files (duplicate bursts, a crashed
     participant, a loss storm under churn) and four inline plans that
     drive the paths the figures never hit — call retries and their
     exhaustion, call timeouts, visited-mark TTL expiry, memo replays,
     duplicate calls and the clean rule. Each plan's dgc.chaos/1
     artifact is pinned byte-for-byte (as a digest) too.

   Every run is made twice, with and without a tracer attached. The
   tracer only observes: each digest that does not involve spans must
   be the same either way. The flight dump is compared with its span
   edges filtered out. The traced runs are made once more with a
   no-op [Engine.observe] callback attached: observers only observe,
   so every digest must come out the same.

   If a deliberate change shifts these, regenerate with

     GOLDEN_DUMP=1 dune exec test/test_golden_telemetry.exe

   and paste the printed table over [expected]. *)

open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_telemetry
module Prof = Dgc_profile.Profile
module Campaign = Dgc_chaos.Campaign
module Inject = Dgc_chaos.Inject
module Workloads = Dgc_chaos.Workloads
module Finput = Dgc_fuzz.Input
module Plan = Dgc_chaos.Plan

let digest s = Digest.to_hex (Digest.string s)

(* Large enough that no ring or journal evicts in these runs, so the
   filtered flight comparison sees every non-span record. *)
let flight_capacity = 1 lsl 20
let journal_capacity = 1 lsl 16

let cfg_fig =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
    profile = true;
    flight_capacity;
  }

let figs : (string * (Config.t -> Sim.t)) list =
  [
    ("fig1", fun cfg -> (Scenario.fig1 ~cfg ()).Scenario.f1_sim);
    ("fig2", fun cfg -> (Scenario.fig2 ~cfg ()).Scenario.f2_sim);
    ("fig3", fun cfg -> (Scenario.fig3 ~cfg ()).Scenario.f3_sim);
    ("fig4", fun cfg -> (Scenario.fig4 ~cfg ()).Scenario.f4_sim);
    ("fig5", fun cfg -> (Scenario.fig5 ~cfg ()).Scenario.f5_sim);
    ("fig6", fun cfg -> (fst (Scenario.fig6 ~cfg ())).Scenario.f5_sim);
  ]

let corpus_plans = [ "drop_retry"; "dup_burst"; "crash_mid_trace" ]

(* cwd is the test's build directory under `dune runtest` (the corpus
   is declared as a dep) but the workspace root under `dune exec`. *)
let corpus_dir () =
  match List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ] with
  | Some d -> d
  | None -> failwith "corpus directory not found"

let load_plan name =
  match Finput.load ~path:(Filename.concat (corpus_dir ()) (name ^ ".json")) with
  | Ok (Finput.Plan_input p, meta) ->
      (Finput.case_of_plan ~name p, Finput.tweak_all meta.Finput.m_tweaks)
  | Ok (Finput.Schedule_input _, _) -> failwith (name ^ ": not a plan")
  | Error e -> failwith (name ^ ": " ^ e)

let inline_plans =
  let plan ev ~at ~dur = { Plan.events = [ { Plan.at_ms = at; dur_ms = dur; ev } ] } in
  let case name workload seed cs_plan =
    {
      Campaign.cs_name = name;
      cs_workload = workload;
      cs_seed = seed;
      cs_horizon_ms = 60000.;
      cs_plan;
    }
  in
  let retries c = c and single_shot c = { c with Config.retry_limit = 0 } in
  [
    (* call retries, a Live trace, the clean rule *)
    ( case "fig1_drop_burst" "fig1" 3
        (plan (Plan.Drop { p = 0.7 }) ~at:2000. ~dur:15000.),
      retries );
    (* retries exhausted, then call timeouts *)
    ( case "fig2_partition" "fig2" 3
        (plan (Plan.Partition { groups = [ [ 0 ] ] }) ~at:2000. ~dur:40000.),
      retries );
    (* a retried call answered from the memo *)
    ( case "race_drop_burst" "race" 3
        (plan (Plan.Drop { p = 0.7 }) ~at:2000. ~dur:15000.),
      retries );
    (* single-shot timeouts and a visited-mark TTL expiry *)
    ( case "fig1_single_shot" "fig1" 2
        (plan (Plan.Drop { p = 0.5 }) ~at:3000. ~dur:10000.),
      single_shot );
  ]

let plans () =
  List.map
    (fun name -> (name, load_plan name))
    corpus_plans
  @ List.map (fun ((c, _) as p) -> (c.Campaign.cs_name, p)) inline_plans

(* --- rendering each sink ----------------------------------------------- *)

let metrics_text m =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
    (List.sort compare (Metrics.counters m));
  List.iter
    (fun (k, (h : Metrics.hist_stats)) ->
      Printf.bprintf b "%s n=%d sum=%h min=%h max=%h p50=%h p95=%h p99=%h\n" k
        h.n h.sum h.min h.max h.p50 h.p95 h.p99)
    (Metrics.hists m);
  Buffer.contents b

let journal_text j =
  String.concat "\n"
    (List.map (Format.asprintf "%a" Journal.pp_entry) (Journal.entries j))

let stats_text col =
  let b = Buffer.create 1024 in
  List.iter
    (fun (trace, (s : Back_trace.trace_stat)) ->
      Printf.bprintf b "%s init=%d root=%s at=%h msgs=%d calls=%d frames=%d parts=[%s] %s\n"
        (Format.asprintf "%a" Dgc_prelude.Trace_id.pp trace)
        (Dgc_prelude.Site_id.to_int s.Back_trace.ts_initiator)
        (Dgc_heap.Oid.to_string s.Back_trace.ts_root)
        (Sim_time.to_seconds s.Back_trace.ts_started)
        s.Back_trace.ts_msgs s.Back_trace.ts_calls s.Back_trace.ts_frames
        (String.concat ","
           (List.map
              (fun p -> string_of_int (Dgc_prelude.Site_id.to_int p))
              (Dgc_prelude.Site_id.Set.elements s.Back_trace.ts_participants)))
        (match s.Back_trace.ts_outcome with
        | None -> "open"
        | Some (v, at) ->
            Printf.sprintf "%s@%h" (Verdict.to_string v) (Sim_time.to_seconds at)))
    (Back_trace.stats (Collector.back col));
  Buffer.contents b

(* The flight dump with span edges removed: what the rings hold when
   no tracer is attached. *)
let flight_nonspan_text doc =
  match Flight.of_json doc with
  | Error e -> failwith ("flight dump does not decode: " ^ e)
  | Ok d ->
      let b = Buffer.create 4096 in
      List.iter
        (fun site ->
          List.iter
            (fun (ev : Flight.event) ->
              match ev.Flight.ev_kind with
              | Flight.Span_start | Flight.Span_end -> ()
              | k ->
                  Printf.bprintf b "%d %s %d %d %s %h %s\n" site
                    (Flight.kind_name k) ev.Flight.ev_a ev.Flight.ev_b
                    ev.Flight.ev_tag ev.Flight.ev_at ev.Flight.ev_payload)
            (Flight.events d ~site))
        (Flight.sites d);
      Buffer.contents b

(* Digest every sink of a finished run. Order matters: the flight dump
   closes open spans (and counts them in [tracer.aborted_spans]), so
   metrics and the span export are read before it. *)
let digests sim journal tracer =
  let eng = sim.Sim.eng in
  let metrics = digest (metrics_text (Engine.metrics eng)) in
  let series = digest (Json.to_string (Series.to_json (Engine.series eng))) in
  let journal = digest (journal_text journal) in
  let profile =
    match Engine.profile eng with
    | Some p -> digest (Json.to_string (Prof.to_json ~wall:false p))
    | None -> "none"
  in
  let stats = digest (stats_text sim.Sim.col) in
  let spans =
    Option.map (fun tr -> digest (Json.to_string (Tracer.to_chrome tr))) tracer
  in
  let flight_doc =
    match Engine.dump_flight eng ~reason:"golden" with
    | Some d -> d
    | None -> failwith "no flight recorder attached"
  in
  let plain =
    [
      ("metrics", metrics);
      ("series", series);
      ("journal", journal);
      ("profile", profile);
      ("stats", stats);
      ("flight.nonspan", digest (flight_nonspan_text flight_doc));
    ]
  in
  match spans with
  | None -> plain
  | Some s ->
      plain
      @ [ ("spans", s); ("flight", digest (Json.to_string flight_doc)) ]

let attach eng ~traced ~observed =
  let journal = Journal.create ~capacity:journal_capacity () in
  Engine.attach_journal eng journal;
  if observed then Engine.observe eng ignore;
  let tracer = if traced then Some (Tracer.create ()) else None in
  Option.iter (Engine.attach_tracer eng) tracer;
  (journal, tracer)

let run_fig build ~traced ~observed =
  let sim = build cfg_fig in
  let journal, tracer = attach sim.Sim.eng ~traced ~observed in
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  Sim.run_rounds sim 4;
  digests sim journal tracer

(* The campaign driver's run of a plan, minus its verdicts, with the
   profiler on and the tracer optional. *)
let run_plan (case, tweak) ~traced ~observed =
  let cfg =
    {
      (tweak (Campaign.base_cfg case)) with
      Config.profile = true;
      flight_capacity;
    }
  in
  let wrng = Dgc_prelude.Rng.create ~seed:((case.Campaign.cs_seed * 7) + 1) in
  let spec = Workloads.build ~name:case.Campaign.cs_workload ~cfg ~rng:wrng in
  let sim = spec.Workloads.sim in
  let journal, tracer = attach sim.Sim.eng ~traced ~observed in
  if not spec.Workloads.settled then Scenario.settle sim ~rounds:5;
  Sim.start sim;
  let inj = Inject.arm sim.Sim.eng case.Campaign.cs_plan in
  Sim.run_for sim (Sim_time.of_millis case.Campaign.cs_horizon_ms);
  Inject.quiesce inj;
  spec.Workloads.stop ();
  Sim.run_for sim (Sim_time.of_minutes 1.);
  ignore (Sim.collect_all sim ~max_rounds:80 ());
  digests sim journal tracer

let chaos_artifact (case, tweak) ~observed =
  let probe pb = if observed then Engine.observe pb.Campaign.pb_eng ignore in
  digest
    (Json.to_string (Campaign.artifact (Campaign.run_case ~tweak ~probe case)))

(* (run, sink) -> digest, traced runs only; the untraced runs are
   checked against these rather than pinned separately. *)
let compute_traced ?(observed = false) () =
  let fig_rows =
    List.concat_map
      (fun (fig, build) ->
        List.map
          (fun (k, d) -> ((fig, k), d))
          (run_fig build ~traced:true ~observed))
      figs
  in
  let plan_rows =
    List.concat_map
      (fun (name, p) ->
        ((name, "chaos"), chaos_artifact p ~observed)
        :: List.map
             (fun (k, d) -> ((name, k), d))
             (run_plan p ~traced:true ~observed))
      (plans ())
  in
  fig_rows @ plan_rows

let compute_untraced () =
  List.map
    (fun (fig, build) -> (fig, run_fig build ~traced:false ~observed:false))
    figs
  @ List.map
      (fun (name, p) -> (name, run_plan p ~traced:false ~observed:false))
      (plans ())

let expected =
  [
    (("fig1", "metrics"), "b4cf1769fa8396b6c081548f18360c65");
    (("fig1", "series"), "2376c93eca29822aff5d19d015d07d3b");
    (("fig1", "journal"), "6bbaaf796e048c9a9fed95b2a49db7d5");
    (("fig1", "profile"), "194378c74887cdcc2c2b6c09cac957e4");
    (("fig1", "stats"), "09064ac04e08ab783e857baf464d608e");
    (("fig1", "flight.nonspan"), "320b74022b00a6eeb179150a132f3555");
    (("fig1", "spans"), "d796e923bb62b43782e7d2370ae0efea");
    (("fig1", "flight"), "80cd8f7418427e64af0ee81c0be893e7");
    (("fig2", "metrics"), "0d90001e36298165998915eb587ed6ac");
    (("fig2", "series"), "b1c5378a4c94d3969f3040fcba497f5d");
    (("fig2", "journal"), "850045c1177f3e12fb50d52581495f19");
    (("fig2", "profile"), "9fec3f7ab40fe9bfbcdc6b441c9d221c");
    (("fig2", "stats"), "8dd6fa182a09d84a4bdb54e76e55eb96");
    (("fig2", "flight.nonspan"), "1fc8a55b3a139aeb58bf1656afceb732");
    (("fig2", "spans"), "efa19d897704feedb52af6c38381cd79");
    (("fig2", "flight"), "1da2d8ed0897c336025ee5316a190b4f");
    (("fig3", "metrics"), "8d29b223a51b412c0c52baabb1967c97");
    (("fig3", "series"), "3f01c59a76f4a709e97a129b2b03de15");
    (("fig3", "journal"), "d41d8cd98f00b204e9800998ecf8427e");
    (("fig3", "profile"), "147ff48b4cad5baf230d7025cc8a3753");
    (("fig3", "stats"), "d41d8cd98f00b204e9800998ecf8427e");
    (("fig3", "flight.nonspan"), "fb95bfe0175d309deefcc23b01a7c4a5");
    (("fig3", "spans"), "5bd2554a3b9e4514e7f8f11fc5dd375f");
    (("fig3", "flight"), "31eadaba0e9e5ed9e447a3b0d815ac79");
    (("fig4", "metrics"), "cd24aafe3beb72acc3ad4768d3f297ec");
    (("fig4", "series"), "1eefa4abbb3ba5c629b4bb3ae6026738");
    (("fig4", "journal"), "7e3a2ed6746b092d16255a07e7eb5ea9");
    (("fig4", "profile"), "3da671716f4034d94e84e08fe2894d37");
    (("fig4", "stats"), "d41d8cd98f00b204e9800998ecf8427e");
    (("fig4", "flight.nonspan"), "9fbf8e4d3e4c2dfe45c1514e7ba65d62");
    (("fig4", "spans"), "5bd2554a3b9e4514e7f8f11fc5dd375f");
    (("fig4", "flight"), "10d203a92f6ecde576d56d09fbb3f0ca");
    (("fig5", "metrics"), "61e59444d571c43c8d9392c6191339bd");
    (("fig5", "series"), "f66619216984e29059758f34f2ae7aa2");
    (("fig5", "journal"), "d2f70b64e326e22e6178e56fc70e07e3");
    (("fig5", "profile"), "6c8fb90857ea26c9fcb6e63359b9036c");
    (("fig5", "stats"), "a30f7bf49bfd7b0d4a44611e5bd97a8e");
    (("fig5", "flight.nonspan"), "4eafa0fb7c3e896cb3ae908ae598b3d7");
    (("fig5", "spans"), "b935106ab0d4a2f2160c135b2a69656a");
    (("fig5", "flight"), "78094cf1b3de5fce4b893fcb1d9c8229");
    (("fig6", "metrics"), "0db00b0f0f2a157379599545e71a9f5c");
    (("fig6", "series"), "3cdf033fbc09ffc4571ad4c7d2936769");
    (("fig6", "journal"), "d41d8cd98f00b204e9800998ecf8427e");
    (("fig6", "profile"), "f4ca034bfa9671b1ca36bbeaa8b2ae2b");
    (("fig6", "stats"), "d41d8cd98f00b204e9800998ecf8427e");
    (("fig6", "flight.nonspan"), "a0f324138c75ce423664753c25223c71");
    (("fig6", "spans"), "5bd2554a3b9e4514e7f8f11fc5dd375f");
    (("fig6", "flight"), "8e4d0dfbf1e5dc648ce5a7bced6b17be");
    (("drop_retry", "chaos"), "1db0166d8223ade0b652d9336ddce362");
    (("drop_retry", "metrics"), "1f07cdff10ebdfbd583bb26b2c354a38");
    (("drop_retry", "series"), "eb2bde6105f39e86b501ff60fc81ac96");
    (("drop_retry", "journal"), "667aac7941046f0fd472a9f1208931a1");
    (("drop_retry", "profile"), "d7896568ec95d9579e92411864604fd0");
    (("drop_retry", "stats"), "d41d8cd98f00b204e9800998ecf8427e");
    (("drop_retry", "flight.nonspan"), "525f82f4d203a8673cccf00f89919277");
    (("drop_retry", "spans"), "5bd2554a3b9e4514e7f8f11fc5dd375f");
    (("drop_retry", "flight"), "a86950860541ea0311fbc2b588b2d9ba");
    (("dup_burst", "chaos"), "1b2b56ef798f23c9f791e05d3dd45795");
    (("dup_burst", "metrics"), "af9be83bd5ce851bf4bce585b572326a");
    (("dup_burst", "series"), "d2275274a875137e1e4deec8e6c00b9f");
    (("dup_burst", "journal"), "b5f4361e22649608fc449d8382fdd3b4");
    (("dup_burst", "profile"), "c67827ab7d71a7698e49ed4b2568ca73");
    (("dup_burst", "stats"), "e86e6dbc9e097e2b8ebcd4da1c6de56e");
    (("dup_burst", "flight.nonspan"), "82e8bc8a9fb4d42c326738481392b744");
    (("dup_burst", "spans"), "c1d0ea960e029bd27a663f3930bc99e7");
    (("dup_burst", "flight"), "cc7ffc827c7c4fc120e9eacb9e080010");
    (("crash_mid_trace", "chaos"), "c666efb763880363d558b13dc9323182");
    (("crash_mid_trace", "metrics"), "bfe71a7067036386a3c87eeaa3afd134");
    (("crash_mid_trace", "series"), "162f1e45a6ec70168f9d93c0709e803e");
    (("crash_mid_trace", "journal"), "e39d4691ba2b9dc746a5eced16ee65e5");
    (("crash_mid_trace", "profile"), "c650d5e6dc1ba2e82c47621641ac8a3a");
    (("crash_mid_trace", "stats"), "7db732927df5b92534487f3a79a6f516");
    (("crash_mid_trace", "flight.nonspan"), "8416011442a57a5783a5cfa890f373a4");
    (("crash_mid_trace", "spans"), "5270c233f8c2ae103c5a5c3b76e571e0");
    (("crash_mid_trace", "flight"), "04aa523ccb09f6b3186cbf660a3dba77");
    (("fig1_drop_burst", "chaos"), "8e6373ac91554f3e7a010c5b8a22110b");
    (("fig1_drop_burst", "metrics"), "e705290d314b293d5a43938971b49089");
    (("fig1_drop_burst", "series"), "4f2f365e1db1fe8abbd57dda5ea5d271");
    (("fig1_drop_burst", "journal"), "45cf3e2649ba02015e92052c2a8e9927");
    (("fig1_drop_burst", "profile"), "26061d1a9d5e56434aafaef5113a09fe");
    (("fig1_drop_burst", "stats"), "043ef54baa04803046ffb6a7fe674471");
    (("fig1_drop_burst", "flight.nonspan"), "ec5c1cc4af9ac83553756972a771a5a0");
    (("fig1_drop_burst", "spans"), "d578d4ffd2c90d09e875fafda16fed02");
    (("fig1_drop_burst", "flight"), "a920c5631a1519b3b42c23a8c0e90b0f");
    (("fig2_partition", "chaos"), "cb69f955787adb2d24a5fdad1299ba39");
    (("fig2_partition", "metrics"), "d3411582d9f6ef633a4f0254c96c58e5");
    (("fig2_partition", "series"), "9e8081af855a6221a7b0e19a46031ac2");
    (("fig2_partition", "journal"), "91f56f58b75b90eb41414c6500cc2230");
    (("fig2_partition", "profile"), "fc2e3aa4384f36329f4830537ef6a068");
    (("fig2_partition", "stats"), "bea48c1a97d354211afb63419cf65d68");
    (("fig2_partition", "flight.nonspan"), "3c88b94927fc4df056ceb123c6c5eb27");
    (("fig2_partition", "spans"), "f9d591717fe8bf9bc3a66514e095ab59");
    (("fig2_partition", "flight"), "5ad24816e26b8cb9dfaed321a37936a3");
    (("race_drop_burst", "chaos"), "4b30566b36bb02effc0ad9c00609490e");
    (("race_drop_burst", "metrics"), "e874dc88010d733ce76e9fca32b8ebe1");
    (("race_drop_burst", "series"), "1ef439a265a1058615bef0a30bc7af05");
    (("race_drop_burst", "journal"), "93b7003e8eb9e77555ac1d7e846cfeca");
    (("race_drop_burst", "profile"), "ea9b9deb022db9b907cbb2a79e7d6a7c");
    (("race_drop_burst", "stats"), "e4026e450db7a132252dd8371a7cb037");
    (("race_drop_burst", "flight.nonspan"), "8320a27f92a6438f49df2adb185ab2e4");
    (("race_drop_burst", "spans"), "c702ebac583dbd39509e5cb58c55fa4c");
    (("race_drop_burst", "flight"), "5d24dd260362f20bd5e3c30377674ab6");
    (("fig1_single_shot", "chaos"), "da0236d6da78f415fb73b2eaa30c90fe");
    (("fig1_single_shot", "metrics"), "9bddb663db7fa3173322d3a9b7d35bc5");
    (("fig1_single_shot", "series"), "125ee88fd1e3320f17190faac0e4ebdb");
    (("fig1_single_shot", "journal"), "13d57f2db1adca8449446f66e1459024");
    (("fig1_single_shot", "profile"), "5318ed14f5e14bbab805ba5e9713d5af");
    (("fig1_single_shot", "stats"), "b1f5ef6901652f3e31962334f4762c51");
    (("fig1_single_shot", "flight.nonspan"), "52e368d69ee4354a425be6f140f1d68e");
    (("fig1_single_shot", "spans"), "467e3dc200bdddfdc8d5d1d398a1eaf7");
    (("fig1_single_shot", "flight"), "459638450b82305643cd3861f458cfe8");
  ]

let dump () =
  List.iter
    (fun ((run, sink), d) -> Printf.printf "    ((%S, %S), %S);\n" run sink d)
    (compute_traced ())

let test_golden () =
  let check_all arm got =
    List.iter
      (fun ((run, sink), want) ->
        match List.assoc_opt (run, sink) got with
        | None -> Alcotest.failf "%s/%s: no digest computed" run sink
        | Some d ->
            Alcotest.(check string)
              (Printf.sprintf "%s/%s digest%s" run sink arm)
              want d)
      expected;
    Alcotest.(check int) ("digest count" ^ arm) (List.length expected)
      (List.length got)
  in
  check_all "" (compute_traced ());
  check_all " (no-op observer)" (compute_traced ~observed:true ())

let test_tracer_only_observes () =
  List.iter
    (fun (run, untraced) ->
      List.iter
        (fun (sink, d) ->
          match List.assoc_opt (run, sink) expected with
          | None -> Alcotest.failf "%s/%s: no pinned digest" run sink
          | Some want ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s untraced = traced" run sink)
                want d)
        untraced)
    (compute_untraced ())

let () =
  if Sys.getenv_opt "GOLDEN_DUMP" = Some "1" then dump ()
  else
    Alcotest.run "golden_telemetry"
      [
        ( "golden",
          [
            Alcotest.test_case "every sink, figs 1-6 and fault plans" `Quick
              test_golden;
            Alcotest.test_case "tracer detached: same non-span sinks" `Quick
              test_tracer_only_observes;
          ] );
      ]
