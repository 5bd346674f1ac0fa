open Dgc_prelude

type t = {
  d_site : Site_id.t;
  d_bound : int;
  d_present : Bytes.t;
  d_roots : Bytes.t;
  d_start : int array;
  d_codes : int array;
  d_pool : Oid.t array;
  d_count : int;
}

let site t = t.d_site
let bound t = t.d_bound
let object_count t = t.d_count

let present t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_present i <> '\000'

let is_root t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_roots i <> '\000'

(* Two passes over the heap, in ascending index order: the first sizes
   the rows and the pool, the second fills them. Field order is kept
   exactly (the trace's union-call sequence depends on it). Nothing is
   allocated per object: the pool holds every target that is not an
   in-bound local index — remote references, plus (defensively) local
   oids outside [0, bound) — and is encoded as [-(pool_index + 1)]. *)
let of_heap heap =
  let site = Heap.site heap and bound = Heap.alloc_clock heap in
  let local_index r =
    if Site_id.equal (Oid.site r) site then
      let j = Oid.index r in
      if j >= 0 && j < bound then j else -1
    else -1
  in
  let d_present = Bytes.make (max bound 1) '\000' in
  let d_roots = Bytes.make (max bound 1) '\000' in
  let d_start = Array.make (bound + 1) 0 in
  let n_pool = ref 0 in
  let rec count deg = function
    | [] -> deg
    | r :: tl ->
        if local_index r < 0 then incr n_pool;
        count (deg + 1) tl
  in
  Heap.iter heap (fun o ->
      let i = Oid.index o.Heap.oid in
      Bytes.set d_present i '\001';
      d_start.(i + 1) <- count 0 o.Heap.fields);
  List.iter
    (fun r ->
      let i = Oid.index r in
      if i >= 0 && i < bound then Bytes.set d_roots i '\001')
    (Heap.persistent_roots heap);
  for i = 0 to bound - 1 do
    d_start.(i + 1) <- d_start.(i) + d_start.(i + 1)
  done;
  let d_codes = Array.make (max d_start.(bound) 1) 0 in
  let d_pool =
    if !n_pool = 0 then [||]
    else Array.make !n_pool (Oid.make ~site ~index:(-1))
  in
  let p = ref 0 in
  let rec fill k = function
    | [] -> ()
    | r :: tl ->
        let j = local_index r in
        if j >= 0 then d_codes.(k) <- j
        else begin
          d_pool.(!p) <- r;
          incr p;
          d_codes.(k) <- - !p
        end;
        fill (k + 1) tl
  in
  Heap.iter heap (fun o ->
      fill d_start.(Oid.index o.Heap.oid) o.Heap.fields);
  {
    d_site = site;
    d_bound = bound;
    d_present;
    d_roots;
    d_start;
    d_codes;
    d_pool;
    d_count = Heap.object_count heap;
  }
