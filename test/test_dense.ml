(* Dense export equivalence: the CSR adjacency + bitsets must encode
   exactly the Heap they were built from, and keep encoding it after
   the heap is mutated (the export is the §6.2 window's snapshot), over
   randomized multi-site graph_gen heaps — the byte-identity of trace
   outcomes rests on this. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_workload

let cfg n seed =
  {
    Config.default with
    Config.n_sites = n;
    seed;
    delta = 3;
    threshold2 = 6;
    trace_interval = Sim_time.of_seconds 10.;
    trace_duration = Sim_time.zero;
  }

(* Decode object [i]'s field codes back to oids, in order. *)
let decode_fields (d : Dense.t) i =
  let out = ref [] in
  for k = d.Dense.d_start.(i + 1) - 1 downto d.Dense.d_start.(i) do
    let c = d.Dense.d_codes.(k) in
    let oid =
      if c >= 0 then Oid.make ~site:d.Dense.d_site ~index:c
      else d.Dense.d_pool.(-c - 1)
    in
    out := oid :: !out
  done;
  !out

let dense_indices (d : Dense.t) =
  List.filter (Dense.present d) (List.init (Dense.bound d) Fun.id)

let check_against_heap heap =
  let d = Dense.of_heap heap in
  let bound = Dense.bound d in
  Alcotest.(check int) "bound = alloc clock" (Heap.alloc_clock heap) bound;
  Alcotest.(check int)
    "object count" (Heap.object_count heap) (Dense.object_count d);
  Alcotest.(check (list int)) "indices" (Heap.indices heap) (dense_indices d);
  let site = Heap.site heap in
  for i = 0 to bound - 1 do
    let oid = Oid.make ~site ~index:i in
    Alcotest.(check bool)
      (Printf.sprintf "present %d" i)
      (Heap.mem heap oid) (Dense.present d i);
    if Dense.present d i then
      Alcotest.(check (list string))
        (Printf.sprintf "fields of %d" i)
        (List.map Oid.to_string (Heap.fields heap oid))
        (List.map Oid.to_string (decode_fields d i))
  done;
  let roots = Heap.persistent_roots heap in
  for i = 0 to bound - 1 do
    let expect = List.exists (fun r -> Oid.index r = i) roots in
    Alcotest.(check bool) (Printf.sprintf "root %d" i) expect (Dense.is_root d i)
  done

(* An export taken before the heap is mutated keeps encoding the heap
   as it was: later field writes, allocations and frees do not reach
   it, and its bound stays the allocation clock at capture. *)
let check_against_snapshot ~rng heap =
  let site = Heap.site heap in
  let clock = Heap.alloc_clock heap in
  let before =
    List.map
      (fun i -> (i, Heap.fields heap (Oid.make ~site ~index:i)))
      (Heap.indices heap)
  in
  let d = Dense.of_heap heap in
  let fresh = Heap.alloc heap in
  List.iter
    (fun (i, _) ->
      let oid = Oid.make ~site ~index:i in
      if Rng.bool rng then Heap.add_field heap ~obj:oid ~target:fresh
      else Heap.clear_fields heap oid)
    before;
  ignore (Heap.free heap (List.map fst before));
  Alcotest.(check int) "bound = clock at capture" clock (Dense.bound d);
  Alcotest.(check (list int)) "indices at capture" (List.map fst before)
    (dense_indices d);
  Alcotest.(check bool) "later object absent" false
    (Dense.present d (Oid.index fresh));
  List.iter
    (fun (i, fields) ->
      Alcotest.(check (list string))
        (Printf.sprintf "fields of %d at capture" i)
        (List.map Oid.to_string fields)
        (List.map Oid.to_string (decode_fields d i)))
    before

(* Randomized graph_gen heaps, including holes from frees. *)
let prop_matches_heap =
  QCheck2.Test.make ~name:"dense export matches heap/snapshot" ~count:40
    ~print:QCheck2.Print.(pair int (pair int int))
    QCheck2.Gen.(pair (1 -- 1000) (pair (2 -- 4) (1 -- 20)))
    (fun (seed, (n_sites, objs_per_site)) ->
      let eng = Engine.create (cfg n_sites seed) in
      let rng = Rng.create ~seed in
      ignore
        (Graph_gen.random_graph eng ~rng ~objects_per_site:objs_per_site
           ~out_degree:2.5 ~remote_frac:0.3 ~root_frac:0.2);
      Array.iter
        (fun st ->
          let heap = st.Site.heap in
          (* Punch holes: free a few non-root objects so indices are
             sparse in [0, bound). *)
          let victims =
            List.filter (fun _i -> Rng.float rng 1.0 < 0.2) (Heap.indices heap)
          in
          ignore (Heap.free heap victims);
          check_against_heap heap;
          check_against_snapshot ~rng heap)
        (Engine.sites eng);
      true)

let test_empty_heap () =
  let heap = Heap.create (Site_id.of_int 0) in
  check_against_heap heap;
  check_against_snapshot ~rng:(Rng.create ~seed:1) heap

let () =
  Alcotest.run "dense"
    [
      ("unit", [ Alcotest.test_case "empty heap" `Quick test_empty_heap ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_matches_heap ]);
    ]
