"""Small-data disease diagnosis: the paper's motivating application.

§1 motivates BNNs with supervised tasks where data is scarce or noisy —
medical diagnosis being the running example (Table 7).  This example
trains the FNN/BNN pair on the synthetic Thoracic-Surgery and Parkinson
tasks, compares accuracies, and shows the BNN's *calibrated uncertainty*:
predictive entropy separates confident from uncertain patients, which a
plain FNN cannot provide.

Run:  python examples/small_data_diagnosis.py
"""

from __future__ import annotations

import numpy as np

from repro.bnn import accuracy
from repro.bnn.metrics import expected_calibration_error, predictive_entropy
from repro.datasets import load_tabular_split
from repro.experiments.training import hardware_accuracy, train_pair


def main() -> None:
    for dataset in ("thoracic", "parkinson-modified"):
        print(f"== dataset: {dataset}")
        x_train, y_train, x_test, y_test = load_tabular_split(dataset, seed=0)
        n_features = x_train.shape[1]
        pair = train_pair(
            (n_features, 32, 32, 2),
            x_train,
            y_train,
            x_test,
            y_test,
            epochs=25,
            seed=0,
        )
        fnn_acc = pair.fnn_history.final_test_accuracy()
        bnn_acc = pair.bnn_history.final_test_accuracy()
        hw_acc = hardware_accuracy(pair.bnn, x_test, y_test, n_samples=30)
        print(f"   FNN+dropout accuracy : {fnn_acc:.3f}")
        print(f"   BNN (software)       : {bnn_acc:.3f}")
        print(f"   VIBNN (8-bit model)  : {hw_acc:.3f}")

        # Uncertainty: rank test patients by predictive entropy; accuracy on
        # the confident half should beat accuracy on the uncertain half.
        # Entropy, predictions and ECE all score the one 50-pass ensemble.
        probs = pair.bnn.predict_proba(x_test, 50)
        entropy = predictive_entropy(probs)
        predictions = probs.argmax(axis=1)
        order = np.argsort(entropy)
        half = len(order) // 2
        confident = order[:half]
        uncertain = order[half:]
        print(f"   accuracy, most-confident half : "
              f"{accuracy(predictions[confident], y_test[confident]):.3f}")
        print(f"   accuracy, least-confident half: "
              f"{accuracy(predictions[uncertain], y_test[uncertain]):.3f}")
        print(f"   expected calibration error    : "
              f"{expected_calibration_error(probs, y_test):.3f}")
        print()


if __name__ == "__main__":
    main()
