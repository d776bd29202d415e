//! One runner per table and figure of the paper's evaluation.
//!
//! Each runner returns a serialisable result struct with a `render()`
//! method producing the human-readable table/series; `jgre all --paper
//! --out artifacts` writes both forms of every one to `artifacts/`.

mod ablations;
mod analysis;
mod baseline;
mod chaos;
mod detection;
mod exhaustion;
mod overhead;
mod protections;

pub use ablations::{
    delta_sensitivity, multipath_comparison, placement_comparison, scoring_fixture,
    threshold_sensitivity, DeltaRow, DeltaSensitivity, IpcByUid, MultiPathComparison, MultiPathRow,
    PlacementComparison, PlacementRow, ThresholdRow, ThresholdSensitivity,
};
pub use analysis::{
    analysis_headline, table1, table4, table5, AnalysisHeadline, Table1, Table1Row, Table4,
    Table4Row, Table5, Table5Row,
};
pub use baseline::{fig4, Fig4};
pub use chaos::{chaos_cell_ids, chaos_matrix, ChaosCell, ChaosMatrix, CHAOS_ATTACKS};
pub use detection::{
    defense_effectiveness, fig8, fig9, response_delay, DefendedAttack, DefenseEffectiveness, Fig8,
    Fig8Row, Fig9, Fig9Row, ResponseDelay, ResponseDelayRow,
};
pub use exhaustion::{fig3, fig5, fig6, Fig3, Fig3Series, Fig5, Fig6};
pub use overhead::{fig10, Fig10, Fig10Row};
pub use protections::{table2, table3, Table2, Table2Row, Table3, Table3Row};
