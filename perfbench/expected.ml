(* Output digests recorded for known seeds. The workloads are
   deterministic functions of their seed, so a program change that alters
   what a campaign resolves shows here even when every other check
   passes. fleet and fleet-durable run the same traffic and share their
   digests. *)

let tiny_fleet = "2 shards, 2 campaigns x 12 items, 6 workers, quorum 3"
let full_fleet = "4 shards, 8 campaigns x 1000 items, 32 workers, quorum 3"
let tiny_tweetpecker = "12 tweets, 4 variants, 5 workers each"
let full_tweetpecker = "1000 tweets, 4 variants, 5 workers each"

let recorded =
  [
    (("fleet", tiny_fleet, 1), "b6fd57253b246443323eebe9ced95cde");
    (("tweetpecker", tiny_tweetpecker, 1), "a36b905759f3b2f443beb3a8a7ee46e0");
    (("fleet", full_fleet, 1), "272e90594826c1a817d339b294bbce92");
    (("fleet", full_fleet, 2), "6250b92eebfb415c796e2cde21e92a1e");
    (("fleet", full_fleet, 3), "65a54453c852e8835334d648906ce645");
    (("fleet", full_fleet, 4), "6453c3e7b3e159781825b9f562e48d91");
    (("fleet", full_fleet, 5), "dd7eac3f938deb4d048d3a69ec43bbb3");
    (("fleet", full_fleet, 6), "132ce3a0987a413bbcc7b1907fc69ce0");
    (("fleet", full_fleet, 7), "871a6f57b38b10ac51c1331831ab62da");
    (("fleet", full_fleet, 8), "157b21a6a4314b48e99d040013a28a9f");
    (("fleet", full_fleet, 9), "e18f5cd3e705bf30f4bbe1bfdc74a802");
    (("fleet", full_fleet, 10), "b5251521de4409d960d26bb4a4468908");
    (("tweetpecker", full_tweetpecker, 1), "80dc9ffc42ace136d3a2e22524fe54ec");
    (("tweetpecker", full_tweetpecker, 2), "82c03ca9611ac763269431400ea88fe9");
    (("tweetpecker", full_tweetpecker, 3), "80c6e7310e181c1b8ca4a12c9b8ba92c");
    (("tweetpecker", full_tweetpecker, 4), "8ebde2e9712c12d944fbc6cc3faf55d6");
    (("tweetpecker", full_tweetpecker, 5), "e1eed3b7e600c33266d5965fc9821d13");
    (("tweetpecker", full_tweetpecker, 6), "664917d34f8ba274b04c0f95983cbab9");
    (("tweetpecker", full_tweetpecker, 7), "21d0464952cc799f812adc501071eeec");
    (("tweetpecker", full_tweetpecker, 8), "a2cf1789d4af7b6c3daffb8d893c291e");
    (("tweetpecker", full_tweetpecker, 9), "4e120198e57028035dfc3c1f10821aae");
    (("tweetpecker", full_tweetpecker, 10), "9338329616e556c0c6af38f04c642fa8");
  ]

let digest ~workload ~shape ~seed =
  let traffic = if workload = "fleet-durable" then "fleet" else workload in
  List.assoc_opt (traffic, shape, seed) recorded
