//! Golden pins of the information models: for B1/B2/B3 under the four
//! orientations, the full [`PropagationStats`] and an FNV-1a hash of every
//! MCC's knowledge bits, on three fixed nets. The rows were taken at the
//! commit *before* the row-filled B2 / hash-free walker build, so they
//! hold any later build to the same carriers and the same Fig. 5(c)
//! counts to the digit. On a mismatch the test prints the table it
//! computed; re-pin only on purpose.

use meshpath::info::{ModelKind, PropagationStats};
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(involved_nodes, messages, per_mcc_max, per_mcc_avg bits, knowledge hash)`.
type Row = (usize, u64, usize, u64, u64);

/// FNV-1a over every MCC's carrier set, row-major, eight nodes a byte,
/// MCCs in id order — independent of how the model stores its bits.
fn knowledge_hash(net: &NetView, o: Orientation, kind: ModelKind) -> u64 {
    let model = net.model(o, kind);
    let mesh = *net.mesh();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    for id in (0..net.mccs(o).len() as u32).map(MccId) {
        let (mut byte, mut filled) = (0u8, 0);
        for n in mesh.iter() {
            byte = (byte << 1) | model.knows(n, id) as u8;
            filled += 1;
            if filled == 8 {
                eat(byte);
                (byte, filled) = (0, 0);
            }
        }
        eat(byte);
        eat(0xff);
    }
    h
}

fn rows_of(net: &NetView) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        for o in Orientation::ALL {
            let s: PropagationStats = net.model(o, kind).stats();
            rows.push((
                s.involved_nodes,
                s.messages,
                s.per_mcc_max,
                s.per_mcc_avg.to_bits(),
                knowledge_hash(net, o, kind),
            ));
        }
    }
    rows
}

fn check(name: &str, net: &NetView, want: &[Row]) {
    let got = rows_of(net);
    if got != want {
        let table: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!(
            "{name}: knowledge golden moved; computed rows (B1, B2, B3 x 4 orientations):\n{table}"
        );
    }
}

fn random_net(mesh: Mesh, faults: usize, seed: u64) -> NetView {
    let mut rng = StdRng::seed_from_u64(seed);
    NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng))
}

/// Six (bar, shelf) pairs climbing north-east: the 12-MCC merge chain of
/// `b2_knowledge_is_closed_under_merges_on_a_chain_deeper_than_eight`.
fn chain_net() -> NetView {
    let mut faults = Vec::new();
    for k in 0..6 {
        let (x, y) = (2 + 3 * k, 2 + 3 * k);
        faults.extend([(x, y), (x, y + 1), (x, y + 2), (x, y + 3), (x + 1, y + 3)]);
        faults.extend((2..=5).map(|dx| (x + dx, y + 1)));
        faults.push((x + 5, y + 2));
    }
    let coords = faults.into_iter().map(|(x, y)| Coord::new(x, y));
    NetView::build(FaultSet::from_coords(Mesh::square(28), coords))
}

#[test]
fn square_64x64_204_faults() {
    check("64x64/204", &random_net(Mesh::square(64), 204, 1), GOLDEN_64);
}

#[test]
fn non_square_100x37_150_faults() {
    check("100x37/150", &random_net(Mesh::new(100, 37), 150, 7), GOLDEN_100X37);
}

#[test]
fn merge_chain_of_twelve() {
    let net = chain_net();
    assert_eq!(net.mccs(Orientation::IDENTITY).len(), 12);
    check("12-MCC chain", &net, GOLDEN_CHAIN);
}

#[rustfmt::skip]
const GOLDEN_64: &[Row] = &[
    (2706, 15335, 200, 4_635_290_778_798_759_476, 8_016_563_502_066_752_966),
    (2873, 16192, 301, 4_636_189_069_743_019_603, 13_052_940_958_825_244_253),
    (2805, 13788, 177, 4_635_122_901_444_606_857, 14_152_897_185_401_678_714),
    (2864, 15360, 364, 4_635_660_807_700_727_417, 13_915_059_508_700_161_890),
    (3779, 68093, 3395, 4_652_623_331_850_261_539, 5_474_234_023_529_508_256),
    (3872, 81753, 3851, 4_658_041_620_429_707_978, 5_823_269_487_439_514_898),
    (3868, 73119, 3859, 4_657_684_394_215_851_127, 13_138_736_574_212_051_219),
    (3870, 91364, 3840, 4_658_692_537_203_079_191, 10_334_584_387_097_884_964),
    (3339, 31341, 399, 4_639_809_203_302_010_098, 7_525_318_096_859_064_797),
    (3348, 35279, 553, 4_641_013_829_045_852_112, 9_704_083_311_371_458_769),
    (3404, 32693, 443, 4_640_341_643_890_713_148, 5_907_825_403_760_301_139),
    (3409, 35216, 507, 4_640_776_575_869_441_243, 8_153_906_725_241_013_535),
];
#[rustfmt::skip]
const GOLDEN_100X37: &[Row] = &[
    (2389, 11152, 343, 4_635_685_058_726_854_656, 2_939_449_909_659_826_788),
    (2389, 14623, 294, 4_636_597_662_035_480_608, 15_190_523_523_580_951_470),
    (2349, 10965, 277, 4_635_316_618_440_687_229, 9_675_221_814_504_988_273),
    (2407, 11403, 268, 4_635_671_864_587_321_344, 652_351_279_819_585_080),
    (3543, 73874, 3543, 4_656_460_915_049_234_432, 12_566_496_596_293_600_343),
    (3537, 73441, 3537, 4_659_438_362_506_299_408, 17_442_734_474_134_440_475),
    (3537, 60917, 3537, 4_657_634_470_830_996_988, 4_588_045_342_082_438_791),
    (3543, 68738, 3543, 4_659_069_849_983_516_672, 6_448_888_837_445_974_369),
    (2973, 24762, 606, 4_640_342_315_104_206_848, 6_476_272_062_225_412_255),
    (2986, 29393, 499, 4_641_370_269_736_065_717, 3_887_740_791_544_433_665),
    (2966, 24189, 528, 4_640_306_427_304_403_396, 13_135_903_943_113_388_602),
    (2961, 27141, 485, 4_640_718_897_836_720_128, 5_714_212_475_805_344_593),
];
#[rustfmt::skip]
const GOLDEN_CHAIN: &[Row] = &[
    (116, 554, 47, 4_629_278_204_471_803_904, 15_430_672_326_874_936_494),
    (85, 86, 85, 4_635_681_760_191_971_328, 3_330_480_648_579_391_216),
    (87, 88, 87, 4_635_822_497_680_326_656, 2_540_426_164_557_042_994),
    (257, 576, 68, 4_631_459_635_541_311_488, 3_304_166_145_011_188_150),
    (463, 3110, 463, 4_646_852_798_330_175_488, 12_158_379_012_850_663_453),
    (195, 233, 195, 4_641_064_969_121_562_624, 13_694_121_412_056_987_099),
    (247, 288, 247, 4_642_894_556_470_181_888, 5_530_541_338_524_820_030),
    (645, 3459, 645, 4_648_884_695_818_305_536, 17_999_311_560_683_312_757),
    (240, 1447, 138, 4_635_816_633_618_311_851, 1_654_981_217_702_319_745),
    (97, 135, 97, 4_636_526_185_122_103_296, 5_429_304_838_613_252_305),
    (98, 139, 98, 4_636_596_553_866_280_960, 5_173_522_874_505_712_521),
    (325, 1264, 135, 4_636_080_516_408_978_091, 6_581_041_356_152_000_056),
];
